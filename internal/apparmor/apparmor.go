package apparmor

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/avc"
	"repro/internal/lsm"
	"repro/internal/sys"
	"repro/internal/vfs"
)

// ModuleName is the LSM registration name.
const ModuleName = "apparmor"

// Unconfined is the label of tasks no profile attaches to.
const Unconfined = "unconfined"

// AppArmor is the security module. The profile table is an immutable
// snapshot swapped atomically on load/replace, so permission checks are
// lock-free — the property that keeps Table III flat and lets the SACK
// enhanced mode rewrite profiles without stalling the fast path. An
// access vector cache fronts profile evaluation: every profile-table
// swap bumps the cache epoch (after the swap), so SACK-enhanced
// transitions revoke cached decisions exactly like native SACK ones.
// It implements the lsm capability interfaces for exec labelling and
// inode/file mediation only.
type AppArmor struct {
	audit *lsm.AuditLog

	mu       sync.Mutex // serialises writers (load/replace/remove)
	profiles atomic.Pointer[profileSet]

	// cache memoises clean allow decisions per (label, path, mask).
	cache *avc.Cache

	allowed atomic.Uint64
	denied  atomic.Uint64
}

// New creates an AppArmor module with an empty profile table. audit may
// be nil to disable audit records.
func New(audit *lsm.AuditLog) *AppArmor {
	a := &AppArmor{audit: audit, cache: avc.New(0)}
	a.profiles.Store(newProfileSet(map[string]*Profile{}))
	return a
}

// Name implements lsm.Module.
func (a *AppArmor) Name() string { return ModuleName }

// LoadProfile adds or replaces a single profile (apparmor_parser -r).
func (a *AppArmor) LoadProfile(p *Profile) error {
	if p == nil || p.Name == "" {
		return sys.EINVAL
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	cur := a.profiles.Load()
	next := make(map[string]*Profile, len(cur.byName)+1)
	for k, v := range cur.byName {
		next[k] = v
	}
	next[p.Name] = p
	a.profiles.Store(newProfileSet(next))
	a.cache.Invalidate()
	return nil
}

// LoadProfiles adds or replaces several profiles in one snapshot swap.
func (a *AppArmor) LoadProfiles(ps []*Profile) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	cur := a.profiles.Load()
	next := make(map[string]*Profile, len(cur.byName)+len(ps))
	for k, v := range cur.byName {
		next[k] = v
	}
	for _, p := range ps {
		if p == nil || p.Name == "" {
			return sys.EINVAL
		}
		next[p.Name] = p
	}
	a.profiles.Store(newProfileSet(next))
	a.cache.Invalidate()
	return nil
}

// RemoveProfile deletes a profile by name.
func (a *AppArmor) RemoveProfile(name string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	cur := a.profiles.Load()
	if _, ok := cur.byName[name]; !ok {
		return sys.ENOENT
	}
	next := make(map[string]*Profile, len(cur.byName))
	for k, v := range cur.byName {
		if k != name {
			next[k] = v
		}
	}
	a.profiles.Store(newProfileSet(next))
	a.cache.Invalidate()
	return nil
}

// Profile returns the named profile, or nil.
func (a *AppArmor) Profile(name string) *Profile {
	return a.profiles.Load().byName[name]
}

// ProfileNames lists loaded profiles in sorted order.
func (a *AppArmor) ProfileNames() []string {
	ps := a.profiles.Load()
	out := make([]string, 0, len(ps.ordered))
	for _, p := range ps.ordered {
		out = append(out, p.Name)
	}
	return out
}

// Stats reports the allow/deny decision counters.
func (a *AppArmor) Stats() (allowed, denied uint64) {
	return a.allowed.Load(), a.denied.Load()
}

// AVCStats snapshots the access vector cache counters.
func (a *AppArmor) AVCStats() avc.Stats { return a.cache.Stats() }

// LabelFor returns the confinement label on a credential.
func LabelFor(cred *sys.Cred) string {
	if l, ok := cred.Blob(ModuleName).(string); ok && l != "" {
		return l
	}
	return Unconfined
}

// SetLabel pins a confinement label on a credential directly. Normally
// labels attach via exec (BprmCheck); tests and the IVI emulator use this
// to model long-running services that were execed before boot completed.
func SetLabel(cred *sys.Cred, label string) {
	cred.SetBlob(ModuleName, label)
}

// --- LSM hooks ---

// BprmCheck attaches the matching profile at exec time.
func (a *AppArmor) BprmCheck(cred *sys.Cred, path string, _ *vfs.Inode) error {
	ps := a.profiles.Load()
	if p := ps.attachFor(path); p != nil {
		cred.SetBlob(ModuleName, p.Name)
	} else {
		cred.SetBlob(ModuleName, Unconfined)
	}
	return nil
}

// InodePermission enforces path access for confined tasks.
func (a *AppArmor) InodePermission(cred *sys.Cred, path string, _ *vfs.Inode, mask sys.Access) error {
	return a.check(cred, "inode_permission", path, mask)
}

// InodeCreate gates file creation.
func (a *AppArmor) InodeCreate(cred *sys.Cred, _ *vfs.Inode, path string, _ vfs.Mode) error {
	return a.check(cred, "inode_create", path, sys.MayCreate)
}

// InodeUnlink gates file removal.
func (a *AppArmor) InodeUnlink(cred *sys.Cred, _ *vfs.Inode, path string, _ *vfs.Inode) error {
	return a.check(cred, "inode_unlink", path, sys.MayUnlink)
}

// FilePermission re-validates reads and writes on open descriptors, so a
// profile swap (as done by SACK-enhanced mode) applies to already-open
// files too.
func (a *AppArmor) FilePermission(cred *sys.Cred, f *vfs.File, mask sys.Access) error {
	if strings.HasPrefix(f.Path, "pipe:") || strings.HasPrefix(f.Path, "socket:") {
		return nil // anonymous objects are not path-mediated
	}
	return a.check(cred, "file_permission", f.Path, mask)
}

// FileIoctl gates device control.
func (a *AppArmor) FileIoctl(cred *sys.Cred, f *vfs.File, _ uint64) error {
	return a.check(cred, "file_ioctl", f.Path, sys.MayIoctl)
}

// MmapFile gates memory mapping.
func (a *AppArmor) MmapFile(cred *sys.Cred, f *vfs.File, prot sys.Access) error {
	return a.check(cred, "mmap_file", f.Path, sys.MayMmap)
}

// check is the decision fast path shared by all hooks. The AVC is
// consulted before the profile table; the token is obtained before the
// table snapshot is loaded, so a cached decision can never outlive the
// profile swap that revoked it. Only clean allows are cached — denials
// and complain-mode passes always run the full path, which formats and
// appends their audit records.
func (a *AppArmor) check(cred *sys.Cred, op, path string, mask sys.Access) error {
	label, _ := cred.Blob(ModuleName).(string)
	if label == "" || label == Unconfined {
		return nil
	}
	cachedAllow, ok, tok := a.cache.Lookup(label, path, mask)
	if ok && cachedAllow {
		a.allowed.Add(1)
		return nil
	}
	ps := a.profiles.Load()
	p, ok := ps.byName[label]
	if !ok {
		return nil // stale label after profile removal: treat as unconfined
	}
	allowed, matched := p.Evaluate(path, mask)
	if allowed {
		a.cache.Insert(tok, label, path, mask, true)
		a.allowed.Add(1)
		return nil
	}
	a.denied.Add(1)
	if a.audit != nil {
		detail := "no matching allow rule"
		if matched != nil {
			detail = "deny rule " + matched.String()
		}
		action := "DENIED"
		if p.Mode == Complain {
			action = "ALLOWED"
			detail += " (complain mode)"
		}
		a.audit.Append(lsm.AuditRecord{
			Module: ModuleName, Op: op, Subject: label, Object: path,
			Action: action, Detail: fmt.Sprintf("mask=%s %s", mask, detail),
		})
	}
	if p.Mode == Complain {
		return nil
	}
	return sys.EACCES
}
