package main

import "testing"

// decidePolicy grants read on /x only in emergency, declares a
// self-transition (emergency -> emergency on ping), and leaves
// "ping" unhandled in normal.
const decidePolicy = `
states { normal emergency }
initial normal
permissions { P }
state_per { emergency: P }
per_rules { P { allow read /x } }
transitions {
  normal -> emergency on crash
  emergency -> normal on clear
  emergency -> emergency on ping
}
`

// TestDecideVerb pins the decide verb's stdout byte for byte and its
// exit code (0 allowed, 3 denied) across the ways an event can land:
// a transition, an event ignored in the current state, an event no
// transition names, and a declared self-transition.
func TestDecideVerb(t *testing.T) {
	files := map[string]string{"p": decidePolicy}
	for _, tc := range []struct {
		name string
		args []string
		code int
		out  string
	}{
		{
			name: "allowed",
			args: []string{"app", "/x", "read", "crash"},
			code: 0,
			out: "event \"crash\": normal -> emergency\n" +
				"allowed: read /x in state emergency\n" +
				"  rule:   allow read /x\n" +
				"  reason: allowed by \"allow read /x\" in state emergency\n",
		},
		{
			name: "denied",
			args: []string{"app", "/x", "read"},
			code: 3,
			out: "denied: read /x in state normal\n" +
				"  reason: no allow rule grants read in state normal\n",
		},
		{
			name: "transition-then-back",
			args: []string{"-", "/x", "read", "crash", "clear"},
			code: 3,
			out: "event \"crash\": normal -> emergency\n" +
				"event \"clear\": emergency -> normal\n" +
				"denied: read /x in state normal\n" +
				"  reason: no allow rule grants read in state normal\n",
		},
		{
			name: "ignored-in-state",
			args: []string{"app", "/x", "read", "ping"},
			code: 3,
			out: "event \"ping\": ignored in state normal\n" +
				"denied: read /x in state normal\n" +
				"  reason: no allow rule grants read in state normal\n",
		},
		{
			name: "unknown-event",
			args: []string{"app", "/x", "read", "warp_drive_engaged"},
			code: 3,
			out: "event \"warp_drive_engaged\": ignored in state normal\n" +
				"denied: read /x in state normal\n" +
				"  reason: no allow rule grants read in state normal\n",
		},
		{
			name: "self-transition",
			args: []string{"app", "/x", "read", "crash", "ping"},
			code: 0,
			out: "event \"crash\": normal -> emergency\n" +
				"event \"ping\": emergency -> emergency\n" +
				"allowed: read /x in state emergency\n" +
				"  rule:   allow read /x\n" +
				"  reason: allowed by \"allow read /x\" in state emergency\n",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, out, errOut := runCtl(t, files, append([]string{"decide", "p"}, tc.args...)...)
			if code != tc.code || out != tc.out || errOut != "" {
				t.Fatalf("decide %v: code=%d (want %d) err=%q\ngot:\n%s\nwant:\n%s",
					tc.args, code, tc.code, errOut, out, tc.out)
			}
		})
	}
}
