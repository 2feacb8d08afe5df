package apparmor

import (
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/avc"
	"repro/internal/lsm"
	"repro/internal/policy"
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
// enhanced mode rewrite profiles without stalling the fast path. Each
// profile is compiled into the policy engine's matcher when it is
// loaded. An access vector cache fronts the matcher under the same
// protocol core uses: every table swap takes a fresh AVC generation
// and publishes it inside the table, so SACK-enhanced transitions
// revoke cached decisions exactly like native SACK ones. It implements
// the lsm capability interfaces for exec labelling and inode/file
// mediation only.
type AppArmor struct {
	audit *lsm.AuditLog

	mu       sync.Mutex // serialises writers (load/replace/remove)
	profiles atomic.Pointer[profileSet]

	// cache memoises decisions per (label, path, mask), a denial with
	// its audit detail.
	cache *avc.Cache

	allowed atomic.Uint64
	denied  atomic.Uint64
}

// New creates an AppArmor module with an empty profile table. audit may
// be nil to disable audit records.
func New(audit *lsm.AuditLog) *AppArmor {
	a := &AppArmor{audit: audit, cache: avc.New(0)}
	a.profiles.Store(newProfileSet(map[string]loaded{}, a.cache.Advance()))
	return a
}

// Name implements lsm.Module.
func (a *AppArmor) Name() string { return ModuleName }

// publish swaps in a new profile table under a fresh AVC generation:
// a reader that loads the table probes the cache under that table's
// token, and a reader still on the old table cannot pollute the new
// generation. Caller holds a.mu.
func (a *AppArmor) publish(next map[string]loaded) {
	a.profiles.Store(newProfileSet(next, a.cache.Advance()))
}

// LoadProfile adds or replaces a single profile (apparmor_parser -r).
func (a *AppArmor) LoadProfile(p *Profile) error {
	return a.LoadProfiles([]*Profile{p})
}

// LoadProfiles adds or replaces several profiles in one snapshot swap.
// Only the given profiles are compiled; the others keep their entries.
func (a *AppArmor) LoadProfiles(ps []*Profile) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	cur := a.profiles.Load()
	next := make(map[string]loaded, len(cur.byName)+len(ps))
	for k, v := range cur.byName {
		next[k] = v
	}
	for _, p := range ps {
		if p == nil || p.Name == "" {
			return sys.EINVAL
		}
		next[p.Name] = compile(p)
	}
	a.publish(next)
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
	next := make(map[string]loaded, len(cur.byName))
	for k, v := range cur.byName {
		if k != name {
			next[k] = v
		}
	}
	a.publish(next)
	return nil
}

// Profile returns the named profile, or nil.
func (a *AppArmor) Profile(name string) *Profile {
	return a.profiles.Load().byName[name].profile
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

// blobSlot is AppArmor's security blob on every credential: the
// confinement label.
var blobSlot = sys.NewBlobSlot()

// LabelFor returns the confinement label on a credential.
func LabelFor(cred *sys.Cred) string {
	if l := cred.Blob(blobSlot); l != "" {
		return l
	}
	return Unconfined
}

// SetLabel pins a confinement label on a credential directly. Normally
// labels attach via exec (BprmCheck); tests and the IVI emulator use this
// to model long-running services that were execed before boot completed.
func SetLabel(cred *sys.Cred, label string) {
	cred.SetBlob(blobSlot, label)
}

// --- LSM hooks ---

// BprmCheck attaches the matching profile at exec time.
func (a *AppArmor) BprmCheck(cred *sys.Cred, path string, _ *vfs.Inode) error {
	ps := a.profiles.Load()
	if p := ps.attachFor(path); p != nil {
		cred.SetBlob(blobSlot, p.Name)
	} else {
		cred.SetBlob(blobSlot, Unconfined)
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

// check is the decision fast path shared by all hooks. One table load
// supplies the profiles and the AVC token together, so a cached
// decision can never outlive the swap that revoked it. On a miss the
// profile's matcher decides and the result is cached, a denial with its
// audit detail, so a repeated denial skips the matcher but still counts
// and audits as its own event. The detail comes from the profile rule
// set's memo, rendered once per (deciding rule, mask) per load.
func (a *AppArmor) check(cred *sys.Cred, op, path string, mask sys.Access) error {
	label := cred.Blob(blobSlot)
	if label == "" || label == Unconfined {
		return nil
	}
	ps := a.profiles.Load()
	allowed, detail, hit := a.cache.LookupAt(ps.token, label, path, mask)
	if hit && allowed {
		a.allowed.Add(1)
		return nil
	}
	e, ok := ps.byName[label]
	if !ok {
		return nil // stale label after profile removal: treat as unconfined
	}
	if !hit {
		a.cache.Miss()
		var rank int
		_, allowed, rank = e.rules.Matcher().EvaluateAt(policy.RootStep{}, label, path, mask)
		if !allowed && a.audit != nil {
			detail = e.rules.Detail(rank, mask, e.detail)
		}
		a.cache.Insert(ps.token, label, path, mask, allowed, detail)
		if allowed {
			a.allowed.Add(1)
			return nil
		}
	}
	a.denied.Add(1)
	complain := e.profile.Mode == Complain
	if a.audit != nil {
		action := "DENIED"
		if complain {
			action = "ALLOWED"
		}
		a.audit.Append(lsm.AuditRecord{
			Module: ModuleName, Op: op, Subject: label, Object: path,
			Action: action, Detail: detail,
		})
	}
	if complain {
		return nil
	}
	return sys.EACCES
}

// denialDetail builds an enforce-mode denial's audit detail: the
// deciding deny rule, or the absence of an allow rule.
func denialDetail(mask sys.Access, matched *policy.CompiledRule, _ string) string {
	if matched != nil {
		return "mask=" + mask.String() + " deny rule " + ruleString(matched)
	}
	return "mask=" + mask.String() + " no matching allow rule"
}

// complainDetail is denialDetail for a complain-mode profile.
func complainDetail(mask sys.Access, matched *policy.CompiledRule, profile string) string {
	return denialDetail(mask, matched, profile) + " (complain mode)"
}
