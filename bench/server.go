package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildServer compiles cmd/hris from the checkout's source into outDir.
func buildServer(ctx context.Context, root, outDir string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(outDir, "hris"))
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/hris")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build cmd/hris: %v\n%s", err, out)
	}
	return bin, nil
}

// server is one hris -http subprocess.
type server struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:<port>
	log  bytes.Buffer
	done chan error // receives cmd.Wait's result once
}

// freePort asks the kernel for an unused loopback port. The port is released
// before the server binds it, which leaves a small window that a local port
// scan could hit; startServer then fails loudly instead of measuring.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches hris -http on a free port and polls it with the
// warm-up query until the first 200. The returned duration runs from process
// launch to that answer: dataset load, store open, index build and the lazy
// distance-oracle build.
func startServer(ctx context.Context, bin string, args []string, warm []byte) (*server, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	s := &server{base: fmt.Sprintf("http://127.0.0.1:%d", port), done: make(chan error, 1)}
	s.cmd = exec.CommandContext(ctx, bin, append([]string{"-http", fmt.Sprintf("127.0.0.1:%d", port)}, args...)...)
	s.cmd.Stdout = &s.log
	s.cmd.Stderr = &s.log
	t0 := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() { s.done <- s.cmd.Wait() }()
	hc := &http.Client{Timeout: 60 * time.Second}
	defer hc.CloseIdleConnections()
	for {
		resp, err := hc.Post(s.base+"/infer", "application/json", bytes.NewReader(warm))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0), nil
			}
			err = fmt.Errorf("warm-up /infer answered %d", resp.StatusCode)
		}
		select {
		case werr := <-s.done:
			return nil, 0, fmt.Errorf("server exited before serving (%v): %s", werr, s.log.String())
		default:
		}
		if time.Since(t0) > 60*time.Second {
			s.kill()
			return nil, 0, fmt.Errorf("server not ready after 60s: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop asks for a graceful shutdown and requires a clean exit.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case err := <-s.done:
		if err != nil {
			return fmt.Errorf("server exit after SIGTERM: %v: %s", err, s.log.String())
		}
		return nil
	case <-time.After(15 * time.Second):
		s.kill()
		return fmt.Errorf("server still running 15s after SIGTERM")
	}
}

// kill ends the server without giving it a chance to flush, and waits for it.
func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.done
}

// cpuSeconds reads the server's user+system CPU time from /proc.
func (s *server) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields are counted after its ')'.
	rest := string(raw[bytes.LastIndexByte(raw, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat: %q", raw)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat: %q", raw)
	}
	const clockTicksPerSecond = 100 // USER_HZ, fixed on Linux
	return (utime + stime) / clockTicksPerSecond, nil
}

// rssPeakMB reads the server's peak resident set size (VmHWM).
func (s *server) rssPeakMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// counters scrapes the server's /metrics counters.
func (s *server) counters() (map[string]uint64, error) {
	resp, err := http.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var snap struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("decode /metrics: %w", err)
	}
	return snap.Counters, nil
}

// selfCPUSeconds is the driver's own user+system CPU time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
