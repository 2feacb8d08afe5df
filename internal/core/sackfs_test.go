package core_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sys"
	"repro/internal/vfs"
)

func TestSACKfsFilesExist(t *testing.T) {
	k, _ := bootIndependent(t, casePolicy)
	for _, path := range []string{
		core.EventsFile, core.PolicyFile, core.StateFile,
		core.StatesFile, core.StatsFile, core.BreakGlassFile,
	} {
		node, err := k.FS.Lookup(path)
		if err != nil {
			t.Errorf("missing %s: %v", path, err)
			continue
		}
		if node.Handler == nil {
			t.Errorf("%s has no handler", path)
		}
	}
}

func TestPolicyFileRequiresMACAdminToRead(t *testing.T) {
	k, _ := bootIndependent(t, casePolicy)
	root := k.Init()
	// Policy contents may embed sensitive facts (which files matter in
	// emergencies); reads need privilege too.
	fd, err := root.Open(core.PolicyFile, vfs.ORdonly, 0)
	if err != nil {
		t.Fatal(err)
	}
	unpriv, _ := root.Fork()
	unpriv.SetUID(1000, 1000)
	buf := make([]byte, 64)
	if _, err := unpriv.Read(fd, buf); !sys.IsErrno(err, sys.EPERM) {
		t.Fatalf("unprivileged policy read via leaked fd: %v", err)
	}
	if _, err := root.Read(fd, buf); err != nil {
		t.Fatalf("root policy read: %v", err)
	}
}

func TestStateFileRejectsUnknownState(t *testing.T) {
	k, s := bootIndependent(t, casePolicy)
	root := k.Init()
	if err := root.WriteFileAll(core.StateFile, []byte("warp_drive\n"), 0); !sys.IsErrno(err, sys.EINVAL) {
		t.Fatalf("bogus force-state: %v", err)
	}
	if s.CurrentState().Name != "normal" {
		t.Fatal("state disturbed by rejected write")
	}
}

func TestStateFileWindowedRead(t *testing.T) {
	k, _ := bootIndependent(t, casePolicy)
	root := k.Init()
	fd, err := root.Open(core.StateFile, vfs.ORdonly, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Byte-at-a-time reads reassemble the same content.
	var got []byte
	buf := make([]byte, 1)
	off := int64(0)
	for {
		n, err := root.Pread(fd, buf, off)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		got = append(got, buf[:n]...)
		off++
	}
	if string(got) != "normal (0)\n" {
		t.Fatalf("windowed read = %q", got)
	}
}

func TestEventsWriteMultipleLines(t *testing.T) {
	k, s := bootIndependent(t, casePolicy)
	root := k.Init()
	// Batch of events in one write, with blank lines and whitespace.
	batch := "crash_detected\n\n  all_clear  \ncrash_detected\n"
	if err := root.WriteFileAll(core.EventsFile, []byte(batch), 0); err != nil {
		t.Fatal(err)
	}
	if s.CurrentState().Name != "emergency" {
		t.Fatalf("state after batch = %q", s.CurrentState().Name)
	}
	_, _, eventsIn, eventsHit := s.Stats()
	if eventsIn != 3 || eventsHit != 3 {
		t.Fatalf("events = %d/%d, want 3/3", eventsHit, eventsIn)
	}
}

func TestPolicyWriteRejectionIsAudited(t *testing.T) {
	k, s := bootIndependent(t, casePolicy)
	root := k.Init()
	if err := root.WriteFileAll(core.PolicyFile, []byte("states { }"), 0); !sys.IsErrno(err, sys.EINVAL) {
		t.Fatalf("garbage policy write: %v", err)
	}
	var found bool
	for _, r := range k.Audit.Records() {
		if r.Op == "policy_reload" && r.Action == "DENIED" {
			found = true
			if !strings.Contains(r.Detail, "policy rejected") || len(r.Detail) < 20 {
				t.Fatalf("rejection audit carries no detail: %q", r.Detail)
			}
		}
	}
	if !found {
		t.Fatal("rejected policy write left no audit record")
	}
	if got := s.CurrentState().Name; got != "normal" {
		t.Fatalf("state disturbed by rejected write: %s", got)
	}
	if st := s.ReloadStatus(); st.Generation != 1 {
		t.Fatalf("rejected write bumped generation to %d", st.Generation)
	}
}

func TestPolicyWriteWarningsAreAudited(t *testing.T) {
	// An accepted policy whose checker raises warnings (an unreachable
	// state) must surface them in the audit log — the write interface
	// itself can only say EINVAL-or-ok.
	const warnPolicy = `
states { normal = 0 busy = 1 orphan = 2 }
initial normal
permissions { NORMAL }
state_per { normal: NORMAL }
per_rules { NORMAL { allow read /etc/** } }
transitions {
  normal -> busy on work_started
  busy -> normal on work_done
}
`
	k, s := bootIndependent(t, casePolicy)
	root := k.Init()
	if err := root.WriteFileAll(core.PolicyFile, []byte(warnPolicy), 0); err != nil {
		t.Fatalf("policy write with warnings: %v", err)
	}
	var warned bool
	for _, r := range k.Audit.Records() {
		if r.Op == "policy_reload_warning" && strings.Contains(r.Detail, "orphan") {
			warned = true
		}
	}
	if !warned {
		t.Fatalf("checker warning not audited; records: %v", k.Audit.Records())
	}
	if st := s.ReloadStatus(); st.Generation != 2 {
		t.Fatalf("generation after accepted write = %d", st.Generation)
	}
}

func TestReloadFileReportsTransaction(t *testing.T) {
	k, s := bootIndependent(t, casePolicy)
	root := k.Init()

	data, err := root.ReadFileAll(core.ReloadFile)
	if err != nil {
		t.Fatalf("read %s: %v", core.ReloadFile, err)
	}
	for _, want := range []string{"generation: 1", "summary: initial policy", "source_hash: "} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("reload file missing %q:\n%s", want, data)
		}
	}

	// Apply a reload through the SACKfs write path; the file must show
	// the bumped generation and the applied diff.
	newSrc := strings.Replace(casePolicy, "allow read /etc/**", "allow read /etc/hostname", 1)
	if err := root.WriteFileAll(core.PolicyFile, []byte(newSrc), 0); err != nil {
		t.Fatalf("policy write: %v", err)
	}
	data, err = root.ReadFileAll(core.ReloadFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"generation: 2", "diff: rule removed", "diff: rule added"} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("reload file missing %q:\n%s", want, data)
		}
	}
	if st := s.ReloadStatus(); st.Generation != 2 || st.Summary == "no changes" {
		t.Fatalf("reload status = %+v", st)
	}

	// Diff lines reproduce policy content: unprivileged reads denied.
	unpriv, _ := root.Fork()
	unpriv.SetUID(1000, 1000)
	if _, err := unpriv.ReadFileAll(core.ReloadFile); err == nil {
		t.Fatal("unprivileged reload-file read succeeded")
	}
}

func TestStatsFileMentionsEverything(t *testing.T) {
	k, s := bootIndependent(t, casePolicy)
	root := k.Init()
	s.Deliver("crash_detected")
	data, err := root.ReadFileAll(core.StatsFile)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, frag := range []string{
		"mode: independent SACK",
		"current_state: emergency",
		"events_received: 1",
		"ssm_transitions: 1",
		"ssm_ignored_events: 0",
	} {
		if !strings.Contains(text, frag) {
			t.Errorf("stats missing %q:\n%s", frag, text)
		}
	}
}
