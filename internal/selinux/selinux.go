// Package selinux implements a deliberately small type-enforcement (TE)
// security module in the SELinux tradition: objects are labelled with
// types via path-based file contexts, tasks run in domains entered at
// exec time, and an access-vector table decides which (domain, type,
// operation) triples are allowed. Unconfined domains bypass TE.
//
// It exists to exercise three-deep LSM stacking
// (CONFIG_LSM="sack,selinux,capability" or "sack,apparmor,selinux,...")
// beyond the paper's two-module configuration, and as the third point of
// comparison in the stacking ablation benchmarks.
package selinux

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/glob"
	"repro/internal/lsm"
	"repro/internal/sys"
	"repro/internal/vfs"
)

// ModuleName is the LSM registration name.
const ModuleName = "selinux"

// UnconfinedDomain is the domain of tasks no domain rule matched.
const UnconfinedDomain = "unconfined_t"

// defaultType labels objects no file context matched.
const defaultType = "default_t"

// fileContext assigns a type to objects matching a path pattern. Later
// declarations win, mirroring the most-specific-last convention of
// file_contexts.
type fileContext struct {
	pattern *glob.Glob
	objType string
}

// domainRule enters a domain when a task execs a matching binary.
type domainRule struct {
	pattern *glob.Glob
	domain  string
}

type avKey struct {
	domain  string
	objType string
}

// policyDB is the immutable compiled policy snapshot.
type policyDB struct {
	contexts []fileContext
	domains  []domainRule
	av       map[avKey]sys.Access
}

// SELinux is the security module. It implements the lsm capability
// interfaces for exec domain entry and inode/file mediation only, so the
// stack never consults it on task, capability, or socket hooks.
type SELinux struct {
	audit *lsm.AuditLog

	mu sync.Mutex
	db atomic.Pointer[policyDB]

	allowed atomic.Uint64
	denied  atomic.Uint64
}

// New creates the module with an empty (allow-nothing-for-confined)
// policy. audit may be nil.
func New(audit *lsm.AuditLog) *SELinux {
	s := &SELinux{audit: audit}
	s.db.Store(&policyDB{av: map[avKey]sys.Access{}})
	return s
}

// Name implements lsm.Module.
func (*SELinux) Name() string { return ModuleName }

// Stats reports the allow/deny decision counters for confined domains.
func (s *SELinux) Stats() (allowed, denied uint64) {
	return s.allowed.Load(), s.denied.Load()
}

// LoadPolicy parses and installs a policy in the simplified syntax:
//
//	# object labelling
//	context /etc/**            etc_t
//	context /dev/vehicle/**    vehicle_dev_t
//	# domain entry at exec
//	domain  doord_t  /usr/bin/doord
//	# access vectors
//	allow doord_t vehicle_dev_t read,write,ioctl
//
// The whole policy replaces atomically, like a policy reload.
func (s *SELinux) LoadPolicy(src string) error {
	db := &policyDB{av: map[avKey]sys.Access{}}
	for lineNo, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "context":
			if len(fields) != 3 {
				return fmt.Errorf("selinux: line %d: context wants <pattern> <type>", lineNo+1)
			}
			g, err := glob.Compile(fields[1])
			if err != nil {
				return fmt.Errorf("selinux: line %d: %v", lineNo+1, err)
			}
			db.contexts = append(db.contexts, fileContext{pattern: g, objType: fields[2]})
		case "domain":
			if len(fields) != 3 {
				return fmt.Errorf("selinux: line %d: domain wants <domain> <exec-pattern>", lineNo+1)
			}
			g, err := glob.Compile(fields[2])
			if err != nil {
				return fmt.Errorf("selinux: line %d: %v", lineNo+1, err)
			}
			db.domains = append(db.domains, domainRule{pattern: g, domain: fields[1]})
		case "allow":
			if len(fields) != 4 {
				return fmt.Errorf("selinux: line %d: allow wants <domain> <type> <ops>", lineNo+1)
			}
			var mask sys.Access
			for _, op := range strings.Split(fields[3], ",") {
				bit := sys.ParseAccess(op)
				if bit == 0 {
					return fmt.Errorf("selinux: line %d: unknown operation %q", lineNo+1, op)
				}
				mask |= bit
			}
			key := avKey{domain: fields[1], objType: fields[2]}
			db.av[key] |= mask
		default:
			return fmt.Errorf("selinux: line %d: unknown statement %q", lineNo+1, fields[0])
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.db.Store(db)
	return nil
}

// blobSlot is SELinux's security blob on every credential: the domain.
var blobSlot = sys.NewBlobSlot()

// DomainFor returns the task's current domain label.
func DomainFor(cred *sys.Cred) string {
	if d := cred.Blob(blobSlot); d != "" {
		return d
	}
	return UnconfinedDomain
}

// TypeOf resolves an object's type under the current policy (exported
// for tests and the stacking demo).
func (s *SELinux) TypeOf(path string) string {
	return s.db.Load().typeOf(path)
}

func (db *policyDB) typeOf(path string) string {
	// Later contexts win: scan in reverse declaration order.
	for i := len(db.contexts) - 1; i >= 0; i-- {
		if db.contexts[i].pattern.Match(path) {
			return db.contexts[i].objType
		}
	}
	return defaultType
}

func (db *policyDB) domainFor(execPath string) string {
	for i := len(db.domains) - 1; i >= 0; i-- {
		if db.domains[i].pattern.Match(execPath) {
			return db.domains[i].domain
		}
	}
	return UnconfinedDomain
}

// Domains lists the declared domains, sorted (introspection).
func (s *SELinux) Domains() []string {
	db := s.db.Load()
	set := map[string]bool{}
	for _, d := range db.domains {
		set[d.domain] = true
	}
	out := make([]string, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// --- hooks ---

// BprmCheck enters the matching domain at exec time.
func (s *SELinux) BprmCheck(cred *sys.Cred, path string, _ *vfs.Inode) error {
	cred.SetBlob(blobSlot, s.db.Load().domainFor(path))
	return nil
}

// InodePermission enforces the access-vector table.
func (s *SELinux) InodePermission(cred *sys.Cred, path string, _ *vfs.Inode, mask sys.Access) error {
	return s.check(cred, "inode_permission", path, mask)
}

// InodeCreate gates object creation.
func (s *SELinux) InodeCreate(cred *sys.Cred, _ *vfs.Inode, path string, _ vfs.Mode) error {
	return s.check(cred, "inode_create", path, sys.MayCreate)
}

// InodeUnlink gates object removal.
func (s *SELinux) InodeUnlink(cred *sys.Cred, _ *vfs.Inode, path string, _ *vfs.Inode) error {
	return s.check(cred, "inode_unlink", path, sys.MayUnlink)
}

// FilePermission re-validates reads and writes on open descriptors.
func (s *SELinux) FilePermission(cred *sys.Cred, f *vfs.File, mask sys.Access) error {
	if strings.HasPrefix(f.Path, "pipe:") || strings.HasPrefix(f.Path, "socket:") {
		return nil
	}
	return s.check(cred, "file_permission", f.Path, mask)
}

// FileIoctl gates device control.
func (s *SELinux) FileIoctl(cred *sys.Cred, f *vfs.File, _ uint64) error {
	return s.check(cred, "file_ioctl", f.Path, sys.MayIoctl)
}

// MmapFile gates memory mapping.
func (s *SELinux) MmapFile(cred *sys.Cred, f *vfs.File, _ sys.Access) error {
	return s.check(cred, "mmap_file", f.Path, sys.MayMmap)
}

func (s *SELinux) check(cred *sys.Cred, op, path string, mask sys.Access) error {
	domain := DomainFor(cred)
	if domain == UnconfinedDomain {
		return nil
	}
	db := s.db.Load()
	objType := db.typeOf(path)
	granted := db.av[avKey{domain: domain, objType: objType}]
	if granted.Has(mask) {
		s.allowed.Add(1)
		return nil
	}
	s.denied.Add(1)
	if s.audit != nil {
		s.audit.Append(lsm.AuditRecord{
			Module: ModuleName, Op: op, Subject: domain, Object: path,
			Action: "DENIED",
			Detail: fmt.Sprintf("tclass=%s mask=%s granted=%s", objType, mask, granted),
		})
	}
	return sys.EACCES
}
