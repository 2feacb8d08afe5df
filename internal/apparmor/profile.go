package apparmor

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/avc"
	"repro/internal/glob"
	"repro/internal/policy"
	"repro/internal/sys"
)

// ProfileMode selects whether violations are denied or only audited.
type ProfileMode int

// Profile modes.
const (
	Enforce ProfileMode = iota
	Complain
)

// String names the mode like aa-status does.
func (m ProfileMode) String() string {
	if m == Complain {
		return "complain"
	}
	return "enforce"
}

// Profile is a confinement domain: a name, an attachment pattern matched
// against exec paths, and the rule list. Rules are the policy engine's
// CompiledRule with no Subject (the profile is the subject) and the
// permission letters as written in Perm ("rwi"), so the profile
// round-trips and audit text names rules as the source did. Loading a
// profile compiles its rules; a loaded profile must not be mutated.
type Profile struct {
	Name       string
	Attachment *glob.Glob // matches executable paths; nil means attach by Name
	Mode       ProfileMode
	Rules      []policy.CompiledRule
}

// Clone deep-copies the profile so callers can mutate rule sets safely.
// Compiled globs are immutable and shared.
func (p *Profile) Clone() *Profile {
	c := &Profile{Name: p.Name, Attachment: p.Attachment, Mode: p.Mode}
	c.Rules = make([]policy.CompiledRule, len(p.Rules))
	copy(c.Rules, p.Rules)
	return c
}

// AttachesTo reports whether the profile confines the given executable.
func (p *Profile) AttachesTo(execPath string) bool {
	if p.Attachment != nil {
		return p.Attachment.Match(execPath)
	}
	return p.Name == execPath
}

// AddRule appends a rule built from a pattern string and permission
// letters (see ParsePerms).
func (p *Profile) AddRule(pattern, perms string, deny bool) error {
	g, err := glob.Compile(pattern)
	if err != nil {
		return err
	}
	access, err := ParsePerms(perms)
	if err != nil {
		return err
	}
	p.Rules = append(p.Rules, policy.CompiledRule{Pattern: g, Access: access, Deny: deny, Perm: perms})
	return nil
}

// ruleString renders a profile rule in profile syntax.
func ruleString(r *policy.CompiledRule) string {
	s := r.Pattern.String() + " " + r.Perm + ","
	if r.Deny {
		return "deny " + s
	}
	return s
}

// String renders the whole profile in loadable syntax.
func (p *Profile) String() string {
	var b strings.Builder
	attach := ""
	if p.Attachment != nil {
		attach = " " + p.Attachment.String()
	}
	flags := ""
	if p.Mode == Complain {
		flags = " flags=(complain)"
	}
	fmt.Fprintf(&b, "profile %s%s%s {\n", p.Name, attach, flags)
	for i := range p.Rules {
		fmt.Fprintf(&b, "  %s\n", ruleString(&p.Rules[i]))
	}
	b.WriteString("}\n")
	return b.String()
}

// Permission letters, an extended superset of AppArmor file permissions:
//
//	r read   w write   a append   x exec   m mmap
//	k lock   i ioctl   c create   d delete (unlink)
var permLetters = map[byte]sys.Access{
	'r': sys.MayRead,
	'w': sys.MayWrite,
	'a': sys.MayAppend,
	'x': sys.MayExec,
	'm': sys.MayMmap,
	'k': sys.MayLock,
	'i': sys.MayIoctl,
	'c': sys.MayCreate,
	'd': sys.MayUnlink,
}

// ParsePerms converts permission letters to an access mask.
func ParsePerms(perms string) (sys.Access, error) {
	if perms == "" {
		return 0, fmt.Errorf("apparmor: empty permission string")
	}
	var mask sys.Access
	for i := 0; i < len(perms); i++ {
		bit, ok := permLetters[perms[i]]
		if !ok {
			return 0, fmt.Errorf("apparmor: unknown permission %q", string(perms[i]))
		}
		mask |= bit
	}
	return mask, nil
}

// FormatPerms converts an access mask back to canonical permission
// letters (sorted in the conventional rwaxmkicd order).
func FormatPerms(mask sys.Access) string {
	order := "rwaxmkicd"
	var b strings.Builder
	for i := 0; i < len(order); i++ {
		if mask&permLetters[order[i]] != 0 {
			b.WriteByte(order[i])
		}
	}
	return b.String()
}

// loaded is one entry of the profile table: the profile as loaded, its
// rules compiled into the policy engine, whose Matcher decides, and the
// renderer of its denial details, which follows the profile's mode.
type loaded struct {
	profile *Profile
	rules   *policy.RuleSet
	detail  policy.DetailFunc
}

// compile builds a profile's table entry; it runs once per load.
func compile(p *Profile) loaded {
	e := loaded{profile: p, rules: policy.NewRuleSet(p.Name, p.Rules), detail: denialDetail}
	if p.Mode == Complain {
		e.detail = complainDetail
	}
	return e
}

// profileSet is the immutable snapshot the hook fast path reads.
type profileSet struct {
	byName map[string]loaded
	// ordered holds profiles in deterministic order for attachment
	// scanning and introspection output.
	ordered []*Profile
	// token is the AVC generation this table was published under,
	// taken by the writer that swapped it in.
	token avc.Token
}

func newProfileSet(profiles map[string]loaded, token avc.Token) *profileSet {
	ps := &profileSet{byName: profiles, token: token}
	names := make([]string, 0, len(profiles))
	for n := range profiles {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		ps.ordered = append(ps.ordered, profiles[n].profile)
	}
	return ps
}

// attachFor returns the profile confining an exec path, or nil.
func (ps *profileSet) attachFor(execPath string) *Profile {
	for _, p := range ps.ordered {
		if p.AttachesTo(execPath) {
			return p
		}
	}
	return nil
}
