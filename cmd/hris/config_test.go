package main

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hist"
)

// TestParseConfig: every rejection names its flag, and the defaults are the
// paper's Table II parameters plus the documented serving bounds.
func TestParseConfig(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // substring of the error
	}{
		{[]string{"-demo", "-phi", "NaN"}, "-phi"},
		{[]string{"-demo", "-phi", "-1"}, "-phi"},
		{[]string{"-demo", "-phi", "+Inf"}, "-phi"},
		{[]string{"-demo", "-k", "0"}, "-k"},
		{[]string{"-demo", "-k", "-3"}, "-k"},
		{[]string{"-demo", "-deadline", "-1s"}, "-deadline"},
		{[]string{"-demo", "-method", "bogus"}, "-method"},
		{[]string{"-demo", "-wal-sync", "sometimes"}, "-wal-sync"},
		{[]string{"-demo", "-shards", "0"}, "-shards"},
		{[]string{"-data", "d"}, "need -query FILE, -demo, -follow or -http"},
	} {
		if _, err := parseConfig(tc.args); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("parseConfig(%q) = %v, want an error naming %s", tc.args, err, tc.want)
		}
	}

	c, err := parseConfig([]string{"-demo"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.params, core.DefaultParams()) {
		t.Errorf("params = %+v, want DefaultParams", c.params)
	}
	if c.walSync != hist.SyncAlways || c.shards != 1 || c.gate != (core.GateConfig{QueueDepth: -1}) {
		t.Errorf("wal-sync %v, shards %d, gate %+v", c.walSync, c.shards, c.gate)
	}
	if want := (streamLimits{maxSessions: 16384, maxPoints: 4096, idle: 5 * time.Minute}); c.limits != want {
		t.Errorf("limits = %+v, want %+v", c.limits, want)
	}

	c, err = parseConfig([]string{"-http", ":0", "-k", "3", "-phi", "0", "-method", "tgi",
		"-deadline", "50ms", "-max-sessions", "0", "-session-idle", "-1s"})
	if err != nil {
		t.Fatal(err)
	}
	if p := c.params; p.K3 != 3 || p.Phi != 0 || p.Method != core.MethodTGI || p.Deadline != 50*time.Millisecond {
		t.Errorf("params = %+v", p)
	}
	if c.limits.maxSessions != 0 || c.limits.idle != -time.Second {
		t.Errorf("limits = %+v, want the values as given (<= 0 is unlimited)", c.limits)
	}
}
