package policy

// File is the parsed form of one SACK policy document. Field names follow
// the paper's Table I interface names.
type File struct {
	States      []StateDecl
	Initial     string
	InitialPos  Pos
	Failsafe    string // state the SSM degrades to when detection dies
	FailsafePos Pos
	Permissions []PermDecl
	Events      []EventDecl
	StatePer    []StatePerDecl
	PerRules    []PerRulesDecl
	Transitions []TransitionDecl
}

// StateDecl declares a situation state and its optional encoding.
type StateDecl struct {
	Name     string
	Encoding *uint32 // nil: auto-assigned at compile time
	Pos      Pos
}

// PermDecl declares a SACK permission (e.g. CONTROL_CAR_DOORS).
type PermDecl struct {
	Name string
	Pos  Pos
}

// EventDecl declares a situation event usable in transitions.
type EventDecl struct {
	Name string
	Pos  Pos
}

// StatePerDecl maps one situation state to its allowed permissions
// (the State_Per interface).
type StatePerDecl struct {
	State string
	Perms []string
	Pos   Pos
}

// PerRulesDecl maps one permission to its MAC rules (the Per_Rules
// interface).
type PerRulesDecl struct {
	Perm  string
	Rules []RuleDecl
	Pos   Pos
}

// RuleDecl is one MAC rule inside a Per_Rules block:
//
//	allow read,write /dev/vehicle/door* [subject /usr/bin/rescued]
//	deny  ioctl      /dev/vehicle/**
type RuleDecl struct {
	Deny    bool
	Ops     []string
	Path    string
	Subject string // optional executable glob confining who the rule covers
	Pos     Pos
}

// TransitionDecl is one SSM transition rule: From -> To on Event.
type TransitionDecl struct {
	From  string
	To    string
	Event string
	Pos   Pos
}

// StateNames lists declared state names in order.
func (f *File) StateNames() []string {
	out := make([]string, len(f.States))
	for i, s := range f.States {
		out[i] = s.Name
	}
	return out
}

// PermissionNames lists declared permission names in order.
func (f *File) PermissionNames() []string {
	out := make([]string, len(f.Permissions))
	for i, p := range f.Permissions {
		out[i] = p.Name
	}
	return out
}
