package sys

import "strings"

// Access is a requested-access bitmask handed to LSM hooks, matching the
// MAY_* constants in include/linux/fs.h extended with the operations SACK
// policies can gate (ioctl, mmap, create, unlink).
type Access uint32

// Access bits. MayExec..MayAppend use the kernel's MAY_* values.
const (
	MayExec   Access = 1 << 0
	MayWrite  Access = 1 << 1
	MayRead   Access = 1 << 2
	MayAppend Access = 1 << 3
	MayIoctl  Access = 1 << 4
	MayMmap   Access = 1 << 5
	MayCreate Access = 1 << 6
	MayUnlink Access = 1 << 7
	MayLock   Access = 1 << 8
)

var accessNames = []struct {
	bit  Access
	name string
}{
	{MayExec, "exec"},
	{MayWrite, "write"},
	{MayRead, "read"},
	{MayAppend, "append"},
	{MayIoctl, "ioctl"},
	{MayMmap, "mmap"},
	{MayCreate, "create"},
	{MayUnlink, "unlink"},
	{MayLock, "lock"},
}

// String renders the mask as a comma-separated operation list, e.g.
// "read,write".
func (a Access) String() string {
	if a == 0 {
		return "(none)"
	}
	if a&(a-1) == 0 {
		for _, n := range accessNames {
			if a == n.bit {
				return n.name
			}
		}
	}
	var parts []string
	for _, n := range accessNames {
		if a&n.bit != 0 {
			parts = append(parts, n.name)
		}
	}
	return strings.Join(parts, ",")
}

// Has reports whether every bit in want is present in a.
func (a Access) Has(want Access) bool { return a&want == want }

// ParseAccess converts an operation name ("read", "ioctl", …) to its bit.
// It returns 0 for unknown names.
func ParseAccess(name string) Access {
	for _, n := range accessNames {
		if n.name == name {
			return n.bit
		}
	}
	return 0
}

// AccessNames returns the canonical operation names in declaration order.
func AccessNames() []string {
	out := make([]string, len(accessNames))
	for i, n := range accessNames {
		out[i] = n.name
	}
	return out
}
