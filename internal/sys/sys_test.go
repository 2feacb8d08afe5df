package sys

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestErrnoError(t *testing.T) {
	if EACCES.Error() != "permission denied" {
		t.Errorf("EACCES.Error() = %q", EACCES.Error())
	}
	if EPERM.Name() != "EPERM" {
		t.Errorf("EPERM.Name() = %q", EPERM.Name())
	}
	unknown := Errno(9999)
	if !strings.Contains(unknown.Error(), "9999") {
		t.Errorf("unknown errno message = %q", unknown.Error())
	}
	if unknown.Name() != "E9999" {
		t.Errorf("unknown errno name = %q", unknown.Name())
	}
}

func TestErrnoValuesMatchLinux(t *testing.T) {
	// Spot-check ABI values against x86-64.
	want := map[Errno]int{
		EPERM: 1, ENOENT: 2, EACCES: 13, EEXIST: 17,
		EINVAL: 22, ENOTTY: 25, EPIPE: 32, ENOSYS: 38,
	}
	for e, v := range want {
		if int(e) != v {
			t.Errorf("%s = %d, want %d", e.Name(), int(e), v)
		}
	}
}

func TestIsErrno(t *testing.T) {
	if !IsErrno(EACCES, EACCES) {
		t.Error("direct match failed")
	}
	if IsErrno(EACCES, EPERM) {
		t.Error("mismatched errnos matched")
	}
	if IsErrno(nil, EACCES) {
		t.Error("nil matched")
	}
	wrapped := fmt.Errorf("opening door: %w", EACCES)
	if !IsErrno(wrapped, EACCES) {
		t.Error("wrapped errno not matched")
	}
	double := fmt.Errorf("ctx: %w", wrapped)
	if !IsErrno(double, EACCES) {
		t.Error("doubly wrapped errno not matched")
	}
	if IsErrno(errors.New("plain"), EACCES) {
		t.Error("plain error matched")
	}
}

func TestCapSetBasics(t *testing.T) {
	var s CapSet
	if !s.Empty() {
		t.Error("zero set should be empty")
	}
	s = s.Add(CapMacAdmin)
	if !s.Has(CapMacAdmin) || s.Has(CapMacOverride) {
		t.Error("Add/Has wrong")
	}
	s = s.Add(CapMacOverride).Drop(CapMacAdmin)
	if s.Has(CapMacAdmin) || !s.Has(CapMacOverride) {
		t.Error("Drop wrong")
	}
	if got := NewCapSet(CapChown, CapKill); !got.Has(CapChown) || !got.Has(CapKill) {
		t.Error("NewCapSet wrong")
	}
}

func TestFullCapSet(t *testing.T) {
	full := FullCapSet()
	for _, c := range []Cap{CapChown, CapDacOverride, CapSetUID, CapSysAdmin, CapMacAdmin, CapMacOverride} {
		if !full.Has(c) {
			t.Errorf("full set missing %s", c)
		}
	}
}

func TestCapSetString(t *testing.T) {
	if got := CapSet(0).String(); got != "(none)" {
		t.Errorf("empty set = %q", got)
	}
	s := NewCapSet(CapMacAdmin, CapChown)
	str := s.String()
	if !strings.Contains(str, "CAP_MAC_ADMIN") || !strings.Contains(str, "CAP_CHOWN") {
		t.Errorf("String() = %q", str)
	}
}

func TestCapString(t *testing.T) {
	if CapMacOverride.String() != "CAP_MAC_OVERRIDE" {
		t.Errorf("got %q", CapMacOverride.String())
	}
	if got := Cap(39).String(); got != "CAP_39" {
		t.Errorf("unknown cap = %q", got)
	}
}

// Property: Add then Drop restores the original membership for any cap.
func TestPropertyCapAddDrop(t *testing.T) {
	f := func(bits uint64, capN uint8) bool {
		c := Cap(capN % capMax)
		s := CapSet(bits)
		had := s.Has(c)
		after := s.Add(c).Drop(c)
		if after.Has(c) {
			return false
		}
		restored := after
		if had {
			restored = restored.Add(c)
		}
		return restored == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAccessMaskString(t *testing.T) {
	if got := (MayRead | MayWrite).String(); got != "write,read" {
		t.Errorf("String() = %q (order follows MAY_* bit order)", got)
	}
	if got := Access(0).String(); got != "(none)" {
		t.Errorf("zero mask = %q", got)
	}
}

func TestAccessHas(t *testing.T) {
	m := MayRead | MayIoctl
	if !m.Has(MayRead) || !m.Has(MayIoctl) || !m.Has(MayRead|MayIoctl) {
		t.Error("Has failed on present bits")
	}
	if m.Has(MayWrite) || m.Has(MayRead|MayWrite) {
		t.Error("Has matched absent bits")
	}
}

func TestParseAccessRoundTrip(t *testing.T) {
	for _, name := range AccessNames() {
		bit := ParseAccess(name)
		if bit == 0 {
			t.Errorf("ParseAccess(%q) = 0", name)
		}
		if got := bit.String(); got != name {
			t.Errorf("round trip %q -> %q", name, got)
		}
	}
	if ParseAccess("fly") != 0 {
		t.Error("unknown op should parse to 0")
	}
}

func TestCredDefaults(t *testing.T) {
	root := NewCred(0, 0)
	if !root.HasCap(CapMacAdmin) || !root.HasCap(CapDacOverride) {
		t.Error("root should hold the full capability set")
	}
	user := NewCred(1000, 1000)
	if !user.Caps.Empty() {
		t.Error("non-root should start with no capabilities")
	}
	if got := user.String(); got != "uid=1000 gid=1000" {
		t.Errorf("String() = %q", got)
	}
}

// testSlot and otherSlot are this test binary's security blob slots,
// taken once: slots are never released.
var testSlot, otherSlot = NewBlobSlot(), NewBlobSlot()

func TestCredCloneIsolation(t *testing.T) {
	orig := NewCred(0, 0)
	orig.SetBlob(testSlot, "profileA")
	clone := orig.Clone()
	if clone.Blob(testSlot) != "profileA" {
		t.Error("clone lost blob")
	}
	clone.SetBlob(testSlot, "profileB")
	if orig.Blob(testSlot) != "profileA" {
		t.Error("clone mutation leaked into original")
	}
	clone.Caps = clone.Caps.Drop(CapMacAdmin)
	if !orig.HasCap(CapMacAdmin) {
		t.Error("clone capability change leaked")
	}
}

func TestCredBlobMissing(t *testing.T) {
	c := NewCred(1, 1)
	if c.Blob(testSlot) != "" {
		t.Error("missing blob should be empty")
	}
	c.SetBlob(otherSlot, "x")
	if c.Blob(testSlot) != "" || c.Blob(otherSlot) != "x" {
		t.Errorf("slots leaked into each other: %q %q", c.Blob(testSlot), c.Blob(otherSlot))
	}
}

// TestCredSetBlobConcurrent races writers on distinct slots of one
// credential: the compare-and-swap publication must keep every write.
func TestCredSetBlobConcurrent(t *testing.T) {
	c := NewCred(1, 1)
	slots := []BlobSlot{testSlot, otherSlot}
	var wg sync.WaitGroup
	for _, slot := range slots {
		wg.Add(1)
		go func(slot BlobSlot) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c.SetBlob(slot, fmt.Sprint(i))
			}
		}(slot)
	}
	wg.Wait()
	for _, slot := range slots {
		if got := c.Blob(slot); got != "199" {
			t.Errorf("slot %d = %q, want 199", slot, got)
		}
	}
}
