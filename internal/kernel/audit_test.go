package kernel

import (
	"strings"
	"testing"

	"repro/internal/lsm"
	"repro/internal/sys"
	"repro/internal/vfs"
)

func TestAuditLogReadableByRoot(t *testing.T) {
	k := New()
	if err := k.Boot(lsm.NewCapability()); err != nil {
		t.Fatal(err)
	}
	k.Audit.Append(lsm.AuditRecord{
		Module: "sack", Op: "file_ioctl", Subject: "radio",
		Object: "/dev/vehicle/door0", Action: "DENIED",
	})
	root := k.Init()
	data, err := root.ReadFileAll("/sys/kernel/security/audit/log")
	if err != nil {
		t.Fatalf("read audit log: %v", err)
	}
	if !strings.Contains(string(data), "file_ioctl") || !strings.Contains(string(data), "DENIED") {
		t.Fatalf("audit log = %q", data)
	}
}

func TestAuditLogDeniedToUsers(t *testing.T) {
	k := New()
	if err := k.Boot(lsm.NewCapability()); err != nil {
		t.Fatal(err)
	}
	root := k.Init()
	user, _ := root.Fork()
	user.SetUID(1000, 1000)
	// DAC already blocks (0400 root-owned); the handler also checks.
	if _, err := user.Open("/sys/kernel/security/audit/log", vfs.ORdonly, 0); err == nil {
		t.Fatal("user opened audit log")
	}
	// Even via a leaked fd the handler refuses without CAP_AUDIT.
	fd, err := root.Open("/sys/kernel/security/audit/log", vfs.ORdonly, 0)
	if err != nil {
		t.Fatal(err)
	}
	leaked, _ := root.Fork()
	leaked.SetUID(1000, 1000)
	buf := make([]byte, 64)
	if _, err := leaked.Read(fd, buf); !sys.IsErrno(err, sys.EPERM) {
		t.Fatalf("leaked-fd audit read: %v", err)
	}
	// Granting CAP_AUDIT opens it up.
	leaked.GrantCap(sys.CapAudit)
	if _, err := leaked.Read(fd, buf); err != nil {
		t.Fatalf("CAP_AUDIT read: %v", err)
	}
}
