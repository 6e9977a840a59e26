package main

import (
	"strings"
	"testing"
)

func runArgs(t *testing.T, args ...string) string {
	t.Helper()
	var sb strings.Builder
	if err := run(args, &sb); err != nil {
		t.Fatalf("eptrace %s: %v", strings.Join(args, " "), err)
	}
	return sb.String()
}

// TestRunDefaultDiurnal pins the default invocation's report.
func TestRunDefaultDiurnal(t *testing.T) {
	const want = `workload EP, shape diurnal(mean=0.30,amp=0.25), 24h0m0s trace with 15m0s epochs

static 32 A9: 12 K10                          16.54 kWh  mean   689.3 W
adaptive over 3 configs                        9.11 kWh  mean   379.6 W  switches=2 violations=0

energy saving from adaptation: 44.9% (mean load 30.0%)
`
	if got := runArgs(t); got != want {
		t.Fatalf("output:\n%s\nwant:\n%s", got, want)
	}
}

// TestAdaptiveRow: -hysteresis reaches the adaptive row and leaves the
// static row alone. A 0.5 band keeps the 25 A9: 8 K10 mix the morning
// rise switched up to through the night's trough, so the day switches
// once and spends more. Under a 50 ms SLO the flash crowd's surge has no
// feasible mix, so four steps fall back to the reference, and the move
// into that fallback counts as a switch.
func TestAdaptiveRow(t *testing.T) {
	const static = "static 32 A9: 12 K10                          16.54 kWh  mean   689.3 W\n"
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-hysteresis", "0"},
			static + "adaptive over 3 configs                        9.11 kWh  mean   379.6 W  switches=2 violations=0\n"},
		{[]string{"-hysteresis", "0.5"},
			static + "adaptive over 3 configs                       10.20 kWh  mean   425.0 W  switches=1 violations=0\n"},
		{[]string{"-shape", "flashcrowd", "-slo", "50ms"}, "switches=3 violations=4\n"},
	} {
		if out := runArgs(t, tc.args...); !strings.Contains(out, tc.want) {
			t.Errorf("eptrace %s: output\n%s\nlacks\n%s", strings.Join(tc.args, " "), out, tc.want)
		}
	}
}

func TestRunErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"bad level", []string{"-shape", "steps", "-levels", "0.15,0.5x"}, `bad level "0.5x"`},
		{"empty level", []string{"-shape", "steps", "-levels", "0.15,,0.5"}, `bad level ""`},
		{"bad shape", []string{"-shape", "wavy"}, `unknown shape "wavy"`},
		{"one mix", []string{"-mixes", "32xA9,12xK10"}, "need at least two candidate mixes"},
		{"bad mix", []string{"-mixes", "32xA9;garbage"}, "garbage"},
		{"bad workload", []string{"-workload", "nope"}, "nope"},
		{"single step", []string{"-step", "24h"}, "need at least 2 steps"},
		{"zero step", []string{"-step", "0s"}, "step must be positive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var sb strings.Builder
			err := run(tc.args, &sb)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want it to contain %q", err, tc.want)
			}
		})
	}
}
