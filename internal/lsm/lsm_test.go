package lsm

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/sys"
	"repro/internal/vfs"
)

// recordingModule logs hook invocations and optionally denies.
type recordingModule struct {
	Base
	name  string
	deny  error // returned from every overridden hook when non-nil
	calls []string
	mu    sync.Mutex
}

func (m *recordingModule) Name() string { return m.name }

func (m *recordingModule) record(hook string) error {
	m.mu.Lock()
	m.calls = append(m.calls, hook)
	m.mu.Unlock()
	return m.deny
}

func (m *recordingModule) InodePermission(*sys.Cred, string, *vfs.Inode, sys.Access) error {
	return m.record("inode_permission")
}

func (m *recordingModule) FileOpen(*sys.Cred, *vfs.File) error { return m.record("file_open") }

func (m *recordingModule) FileIoctl(*sys.Cred, *vfs.File, uint64) error {
	return m.record("file_ioctl")
}

func (m *recordingModule) callLog() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, len(m.calls))
	copy(out, m.calls)
	return out
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	s := NewStack()
	if err := s.Register(&recordingModule{name: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Register(&recordingModule{name: "a"}); err == nil {
		t.Fatal("duplicate registration accepted")
	}
}

func TestStackOrderAndString(t *testing.T) {
	s := NewStack()
	s.Register(&recordingModule{name: "sack"})
	s.Register(&recordingModule{name: "apparmor"})
	s.Register(NewCapability())
	if got := s.String(); got != "sack,apparmor,capability" {
		t.Fatalf("stack order = %q", got)
	}
}

func TestFirstDenyWinsAndShortCircuits(t *testing.T) {
	first := &recordingModule{name: "first", deny: sys.EACCES}
	second := &recordingModule{name: "second"}
	s := NewStack()
	s.Register(first)
	s.Register(second)

	cred := sys.NewCred(0, 0)
	err := s.InodePermission(cred, "/x", nil, sys.MayRead)
	if !sys.IsErrno(err, sys.EACCES) {
		t.Fatalf("err = %v", err)
	}
	if len(second.callLog()) != 0 {
		t.Fatal("second module consulted after first denied (whitelist stacking broken)")
	}
	if s.Denials("first") != 1 || s.Denials("second") != 0 {
		t.Fatalf("denial counters = %d, %d", s.Denials("first"), s.Denials("second"))
	}
}

func TestAllModulesConsultedOnAllow(t *testing.T) {
	a := &recordingModule{name: "a"}
	b := &recordingModule{name: "b"}
	s := NewStack()
	s.Register(a)
	s.Register(b)
	cred := sys.NewCred(0, 0)
	if err := s.InodePermission(cred, "/x", nil, sys.MayRead); err != nil {
		t.Fatal(err)
	}
	if len(a.callLog()) != 1 || len(b.callLog()) != 1 {
		t.Fatal("not all modules consulted on allow")
	}
}

func TestSecondModuleDenies(t *testing.T) {
	a := &recordingModule{name: "a"}
	b := &recordingModule{name: "b", deny: sys.EPERM}
	s := NewStack()
	s.Register(a)
	s.Register(b)
	err := s.FileIoctl(sys.NewCred(0, 0), nil, 1)
	if !sys.IsErrno(err, sys.EPERM) {
		t.Fatalf("err = %v", err)
	}
	if s.Denials("b") != 1 {
		t.Fatal("denial not attributed to b")
	}
}

func TestEmptyStackAllowsEverything(t *testing.T) {
	s := NewStack()
	cred := sys.NewCred(1000, 1000)
	if err := s.InodePermission(cred, "/x", nil, sys.MayWrite); err != nil {
		t.Fatal(err)
	}
	if err := s.Capable(cred, sys.CapMacAdmin); err != nil {
		t.Fatal("empty stack should not enforce capabilities")
	}
}

func TestCapabilityModule(t *testing.T) {
	s := NewStack()
	s.Register(NewCapability())
	root := sys.NewCred(0, 0)
	user := sys.NewCred(1000, 1000)
	if err := s.Capable(root, sys.CapMacAdmin); err != nil {
		t.Errorf("root CAP_MAC_ADMIN: %v", err)
	}
	if err := s.Capable(user, sys.CapMacAdmin); !sys.IsErrno(err, sys.EPERM) {
		t.Errorf("user CAP_MAC_ADMIN: %v", err)
	}
	user.Caps = user.Caps.Add(sys.CapMacAdmin)
	if err := s.Capable(user, sys.CapMacAdmin); err != nil {
		t.Errorf("granted cap still denied: %v", err)
	}
}

// nopNamed is Base plus a name — the minimal valid module.
type nopNamed struct{ Base }

func (nopNamed) Name() string { return "nop" }

func TestMinimalModule(t *testing.T) {
	s := NewStack()
	if err := s.Register(nopNamed{}); err != nil {
		t.Fatal(err)
	}
	cred := sys.NewCred(0, 0)
	hooks := []error{
		s.TaskAlloc(cred, cred),
		s.BprmCheck(cred, "/bin/x", nil),
		s.Capable(cred, sys.CapChown),
		s.InodePermission(cred, "/x", nil, sys.MayRead),
		s.InodeCreate(cred, nil, "/x", 0),
		s.InodeUnlink(cred, nil, "/x", nil),
		s.InodeGetattr(cred, "/x", nil),
		s.FileOpen(cred, nil),
		s.FilePermission(cred, nil, sys.MayRead),
		s.FileIoctl(cred, nil, 0),
		s.MmapFile(cred, nil, sys.MayRead),
		s.SocketCreate(cred, 1, 1),
		s.SocketConnect(cred, "unix:/x"),
		s.SocketSendmsg(cred, "unix:/x", 10),
	}
	for i, err := range hooks {
		if err != nil {
			t.Errorf("hook %d denied by Base: %v", i, err)
		}
	}
}

func TestConcurrentHooksWithRegistration(t *testing.T) {
	s := NewStack()
	s.Register(&recordingModule{name: "m0"})
	cred := sys.NewCred(0, 0)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s.InodePermission(cred, "/x", nil, sys.MayRead)
			}
		}()
	}
	for i := 1; i <= 8; i++ {
		s.Register(&recordingModule{name: fmt.Sprintf("m%d", i)})
	}
	wg.Wait()
	if got := len(s.Modules()); got != 9 {
		t.Fatalf("modules = %d", got)
	}
}

func TestAuditLogRing(t *testing.T) {
	l := NewAuditLog(3)
	for i := 0; i < 5; i++ {
		l.Append(AuditRecord{Module: "m", Op: fmt.Sprintf("op%d", i), Action: "DENIED"})
	}
	recs := l.Records()
	if len(recs) != 3 {
		t.Fatalf("retained = %d, want 3", len(recs))
	}
	if recs[0].Op != "op2" || recs[2].Op != "op4" {
		t.Fatalf("wrong retention window: %v", recs)
	}
	if recs[2].Seq != 5 {
		t.Fatalf("seq = %d, want 5", recs[2].Seq)
	}
	if len(l.Denials()) != 3 {
		t.Fatal("denials filter wrong")
	}
	l.Clear()
	if l.Len() != 0 {
		t.Fatal("clear failed")
	}
	l.Append(AuditRecord{Module: "m", Op: "after", Action: "ALLOWED"})
	if l.Records()[0].Seq != 6 {
		t.Fatal("sequence should continue after clear")
	}
}

func TestAuditRecordString(t *testing.T) {
	l := NewAuditLog(0)
	l.Append(AuditRecord{Module: "sack", Op: "file_ioctl", Subject: "radio", Object: "/dev/d", Action: "DENIED"})
	s := l.Records()[0].String()
	for _, frag := range []string{"sack", "file_ioctl", "radio", "/dev/d", "DENIED"} {
		if !strings.Contains(s, frag) {
			t.Errorf("record string %q missing %q", s, frag)
		}
	}
}

func TestAuditLogSinceCursor(t *testing.T) {
	l := NewAuditLog(4)
	if recs, next, missed := l.Since(0); recs != nil || next != 0 || missed != 0 {
		t.Fatalf("empty log Since = %v %d %d", recs, next, missed)
	}
	for i := 1; i <= 3; i++ {
		l.Append(AuditRecord{Module: "m", Op: fmt.Sprintf("op%d", i)})
	}
	recs, next, missed := l.Since(0)
	if len(recs) != 3 || missed != 0 || next != 3 {
		t.Fatalf("Since(0) = %d recs, next=%d, missed=%d", len(recs), next, missed)
	}
	if recs[0].Seq != 1 || recs[2].Seq != 3 {
		t.Fatalf("wrong seq window: %v", recs)
	}
	// Resume from the returned cursor: nothing new.
	if recs, _, _ := l.Since(next); len(recs) != 0 {
		t.Fatalf("resumed cursor returned %d records", len(recs))
	}
	// Overflow the ring: seqs 4..9, ring keeps 6..9, export from 3
	// misses 4 and 5.
	for i := 4; i <= 9; i++ {
		l.Append(AuditRecord{Module: "m", Op: fmt.Sprintf("op%d", i)})
	}
	recs, next, missed = l.Since(3)
	if len(recs) != 4 || next != 9 || missed != 2 {
		t.Fatalf("post-overflow Since(3) = %d recs, next=%d, missed=%d", len(recs), next, missed)
	}
	if recs[0].Seq != 6 || recs[3].Seq != 9 {
		t.Fatalf("wrong post-overflow window: %v", recs)
	}
	if l.Dropped() != 5 || l.Emitted() != 9 {
		t.Fatalf("dropped=%d emitted=%d, want 5, 9", l.Dropped(), l.Emitted())
	}
	// Ledger invariant: every record is either retained-or-exported or
	// counted dropped.
	if uint64(l.Len())+l.Dropped() != l.Emitted() {
		t.Fatalf("ledger broken: len=%d dropped=%d emitted=%d", l.Len(), l.Dropped(), l.Emitted())
	}
}

func TestAuditLogClearCountsDropped(t *testing.T) {
	l := NewAuditLog(8)
	for i := 0; i < 5; i++ {
		l.Append(AuditRecord{Module: "m"})
	}
	l.Clear()
	if l.Dropped() != 5 {
		t.Fatalf("dropped after clear = %d, want 5", l.Dropped())
	}
	l.Append(AuditRecord{Module: "m"})
	recs, _, missed := l.Since(0)
	if len(recs) != 1 || recs[0].Seq != 6 || missed != 5 {
		t.Fatalf("post-clear Since(0) = %v missed=%d", recs, missed)
	}
}

// sinceScan is the reference Since: scan every retained record and keep
// those past cursor. Since must agree with it while copying only what
// it returns.
func sinceScan(l *AuditLog, cursor uint64) (recs []AuditRecord, next uint64, missed uint64) {
	l.Flush()
	l.mu.Lock()
	defer l.mu.Unlock()
	next = l.seq
	if cursor >= l.seq {
		return nil, next, 0
	}
	oldest := l.seq - uint64(l.n) + 1
	if l.n == 0 {
		oldest = l.seq + 1
	}
	if cursor+1 < oldest {
		missed = oldest - cursor - 1
	}
	for i := 0; i < l.n; i++ {
		r := l.buf[(l.start+i)%len(l.buf)]
		if r.Seq > cursor {
			recs = append(recs, r)
		}
	}
	return recs, next, missed
}

// TestAuditLogSinceMatchesScan: for every cursor from 0 past the newest
// sequence number, Since returns what the full-ring scan returns, in a
// slice sized to exactly the records it holds.
func TestAuditLogSinceMatchesScan(t *testing.T) {
	const max = 4
	fill := func(l *AuditLog, n int) {
		for i := 0; i < n; i++ {
			l.Append(AuditRecord{Module: "m", Op: fmt.Sprintf("op%d", i)})
		}
	}
	cases := []struct {
		name  string
		setup func(l *AuditLog)
	}{
		{"empty ring", func(*AuditLog) {}},
		{"partial", func(l *AuditLog) { fill(l, max-1) }},
		{"full", func(l *AuditLog) { fill(l, max) }},
		{"wrapped", func(l *AuditLog) { fill(l, 3*max+1) }},
		{"cleared", func(l *AuditLog) { fill(l, max+2); l.Clear() }},
		{"appended after clear", func(l *AuditLog) { fill(l, max+2); l.Clear(); fill(l, 2) }},
	}
	for _, c := range cases {
		l := NewAuditLog(max)
		c.setup(l)
		// Cursors cover: before the oldest retained record, inside the
		// window, == the newest seq, and past it.
		for cursor := uint64(0); cursor <= l.Cursor()+1; cursor++ {
			recs, next, missed := l.Since(cursor)
			wantRecs, wantNext, wantMissed := sinceScan(l, cursor)
			if !reflect.DeepEqual(recs, wantRecs) || next != wantNext || missed != wantMissed {
				t.Fatalf("%s: Since(%d) = %v, %d, %d; want %v, %d, %d",
					c.name, cursor, recs, next, missed, wantRecs, wantNext, wantMissed)
			}
			if cap(recs) != len(recs) {
				t.Fatalf("%s: Since(%d) returned cap %d for %d records", c.name, cursor, cap(recs), len(recs))
			}
		}
	}
}
