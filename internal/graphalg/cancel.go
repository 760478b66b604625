package graphalg

// stride is the amortization interval for cancellation checkpoints inside
// hot loops: the done channel is polled once every stride iterations, so
// the uncancellable path (done == nil) pays a counter increment and a nil
// check per iteration and never touches the clock or a channel.
const stride = 256

// Stopped reports whether done is closed. A nil channel means the caller
// is uncancellable and always reports false — pass ctx.Done() to make a
// search cancellable, nil to opt out. Shared by the higher pipeline layers
// (roadnet, hist, core, mapmatch) so every checkpoint has identical
// semantics.
func Stopped(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	if stopHook != nil {
		stopHook()
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// stopHook, when set, runs before every poll of a non-nil channel. Only this
// package's tests set it: closing done at an exact checkpoint needs the count.
var stopHook func()
