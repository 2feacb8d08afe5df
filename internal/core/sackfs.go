package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/lsm"
	"repro/internal/policy"
	"repro/internal/securityfs"
	"repro/internal/sys"
	"repro/internal/vfs"
)

// SACKfs paths, as in the paper (§IV-C: "/sys/kernel/security/SACK/events").
const (
	FSDir          = "SACK"
	EventsFile     = securityfs.MountPoint + "/" + FSDir + "/events"
	PolicyFile     = securityfs.MountPoint + "/" + FSDir + "/policy"
	StateFile      = securityfs.MountPoint + "/" + FSDir + "/state"
	StatesFile     = securityfs.MountPoint + "/" + FSDir + "/states"
	StatsFile      = securityfs.MountPoint + "/" + FSDir + "/stats"
	BreakGlassFile = securityfs.MountPoint + "/" + FSDir + "/break_glass"
)

// RegisterSecurityFS exposes SACKfs: the securityfs-based transmission
// interface between the user-space situation detection service and the
// kernel SSM. Files:
//
//	events  write situation event names (one per line); read lists the
//	        events the current policy reacts to. Requires CAP_MAC_ADMIN.
//	policy  write replaces the SACK policy; read dumps the source.
//	state   read the current situation state; write forces a state
//	        (administrative break-glass; CAP_MAC_ADMIN).
//	states  read the declared states and encodings.
//	stats   read module counters.
func (s *SACK) RegisterSecurityFS(secfs *securityfs.FS) error {
	if _, err := secfs.CreateDir(FSDir); err != nil {
		return err
	}

	files := []struct {
		name string
		perm vfs.Mode
		h    *securityfs.FuncFile
	}{
		{"events", 0o600, &securityfs.FuncFile{
			OnRead: func(*sys.Cred) ([]byte, error) {
				var b strings.Builder
				for _, e := range s.snap.Load().compiled.Events() {
					b.WriteString(string(e))
					b.WriteByte('\n')
				}
				return []byte(b.String()), nil
			},
			OnWrite: func(cred *sys.Cred, data []byte) error {
				if !cred.HasCap(sys.CapMacAdmin) {
					return sys.EPERM
				}
				for _, line := range strings.Split(string(data), "\n") {
					ev := strings.TrimSpace(line)
					if ev == "" {
						continue
					}
					// Control lines ("!..." — heartbeats and future SDS
					// health reports) share the event channel so that a
					// stalled transmitter silences both; they are routed
					// to the pipeline monitor, not the SSM.
					if strings.HasPrefix(ev, "!") {
						if err := s.pipe.handleControl(ev); err != nil {
							return err
						}
						continue
					}
					// A degraded or unknown event is already counted in
					// the pipeline file; the write itself succeeds.
					_ = s.Deliver(policy.Event(ev))
				}
				return nil
			},
		}},
		{"policy", 0o600, &securityfs.FuncFile{
			OnRead: func(cred *sys.Cred) ([]byte, error) {
				if !cred.HasCap(sys.CapMacAdmin) {
					return nil, sys.EPERM
				}
				return []byte(s.snap.Load().source), nil
			},
			OnWrite: func(cred *sys.Cred, data []byte) error {
				if !cred.HasCap(sys.CapMacAdmin) {
					return sys.EPERM
				}
				src := string(data)
				// The write interface can only report an errno; the
				// *reason* a reload was rejected (parse position, checker
				// finding) and any non-fatal warnings go to the audit
				// log, where sackctl users can retrieve them.
				compiled, vr, err := policy.Load(src)
				if err != nil {
					s.auditReloadReject("policy rejected: " + err.Error())
					return sys.EINVAL
				}
				for _, w := range vr.Warnings() {
					s.auditReloadWarning(w.String())
				}
				if _, err := s.ReplacePolicy(compiled, src); err != nil {
					s.auditReloadReject(err.Error())
					return sys.EINVAL
				}
				return nil
			},
		}},
		{"state", 0o644, &securityfs.FuncFile{
			OnRead: func(*sys.Cred) ([]byte, error) {
				st := s.CurrentState()
				return []byte(fmt.Sprintf("%s (%d)\n", st.Name, st.Encoding)), nil
			},
			OnWrite: func(cred *sys.Cred, data []byte) error {
				if !cred.HasCap(sys.CapMacAdmin) {
					return sys.EPERM
				}
				s.mu.Lock()
				defer s.mu.Unlock()
				return s.forceLocked(strings.TrimSpace(string(data)))
			},
		}},
		{"states", 0o444, &securityfs.FuncFile{
			OnRead: func(*sys.Cred) ([]byte, error) {
				states := append([]policy.StateInfo(nil), s.snap.Load().compiled.States...)
				sort.Slice(states, func(i, j int) bool { return states[i].Encoding < states[j].Encoding })
				var b strings.Builder
				for _, st := range states {
					fmt.Fprintf(&b, "%s = %d\n", st.Name, st.Encoding)
				}
				return []byte(b.String()), nil
			},
		}},
		{"break_glass", 0o600, &securityfs.FuncFile{
			// Write "<state> <reason...>" to break the glass; read shows
			// the invocation log for post-incident review.
			OnRead: func(cred *sys.Cred) ([]byte, error) {
				if !cred.HasCap(sys.CapMacAdmin) {
					return nil, sys.EPERM
				}
				var b strings.Builder
				for _, r := range s.BreakGlassLog() {
					status := "OUTSTANDING"
					if r.Reverted {
						status = "reverted"
					}
					fmt.Fprintf(&b, "%d uid=%d subject=%s to=%s reason=%q %s\n",
						r.Seq, r.UID, r.Invoker, r.ToState, r.Reason, status)
				}
				return []byte(b.String()), nil
			},
			OnWrite: func(cred *sys.Cred, data []byte) error {
				fields := strings.Fields(string(data))
				if len(fields) == 0 {
					return sys.EINVAL
				}
				reason := strings.Join(fields[1:], " ")
				return s.BreakGlass(cred, fields[0], reason)
			},
		}},
		{"stats", 0o444, &securityfs.FuncFile{
			OnRead: func(*sys.Cred) ([]byte, error) {
				checks, denials, eventsIn, eventsHit := s.Stats()
				covered, uncovered := s.CheckStats()
				var b strings.Builder
				fmt.Fprintf(&b, "mode: %s\n", s.mode)
				fmt.Fprintf(&b, "current_state: %s\n", s.CurrentState().Name)
				fmt.Fprintf(&b, "checks: %d\n", checks)
				fmt.Fprintf(&b, "checks_covered: %d\n", covered)
				fmt.Fprintf(&b, "checks_uncovered: %d\n", uncovered)
				fmt.Fprintf(&b, "denials: %d\n", denials)
				if avcStats := s.AVCStats(); avcStats.Size > 0 {
					fmt.Fprintf(&b, "avc_hits: %d\n", avcStats.Hits)
					fmt.Fprintf(&b, "avc_misses: %d\n", avcStats.Misses)
					fmt.Fprintf(&b, "avc_invalidations: %d\n", avcStats.Invalidations)
				}
				fmt.Fprintf(&b, "events_received: %d\n", eventsIn)
				fmt.Fprintf(&b, "events_transitioned: %d\n", eventsHit)
				// Every committed move is an event hit or a forced one;
				// the counters span reloads.
				fmt.Fprintf(&b, "ssm_transitions: %d\n", eventsHit+s.Forced())
				fmt.Fprintf(&b, "ssm_ignored_events: %d\n", eventsIn-eventsHit)
				return []byte(b.String()), nil
			},
		}},
	}
	for _, f := range files {
		if _, err := secfs.CreateFile(FSDir, f.name, f.perm, f.h); err != nil {
			return err
		}
	}
	return s.registerPipelineFS(secfs)
}

// auditReloadReject records why a policy write was rejected; the write
// path itself can only return a bare errno.
func (s *SACK) auditReloadReject(detail string) {
	if s.audit == nil {
		return
	}
	s.audit.Append(lsm.AuditRecord{
		Module: ModuleName, Op: "policy_reload",
		Subject: "policy_write", Object: PolicyFile, Action: "DENIED",
		Detail: detail,
	})
}

// auditReloadWarning records a non-fatal policy-checker finding raised
// by an accepted policy write.
func (s *SACK) auditReloadWarning(detail string) {
	if s.audit == nil {
		return
	}
	s.audit.Append(lsm.AuditRecord{
		Module: ModuleName, Op: "policy_reload_warning",
		Subject: "policy_write", Object: PolicyFile, Action: "ALLOWED",
		Detail: detail,
	})
}

// registerPipelineFS exposes the event-pipeline health and reload
// status views beside the kernel's hook metrics file (the lowercase
// "sack" directory). The pipeline view carries operational health
// rather than policy content, so it is world-readable; the reload view
// reproduces policy diff lines and requires CAP_MAC_ADMIN like the
// policy file itself. The directory already exists when the kernel
// registered its metrics file first; that is not an error.
func (s *SACK) registerPipelineFS(secfs *securityfs.FS) error {
	if _, err := secfs.CreateDir("sack"); err != nil && err != sys.EEXIST {
		return err
	}
	if _, err := secfs.CreateFile("sack", "pipeline", 0o444, &securityfs.FuncFile{
		OnRead: func(*sys.Cred) ([]byte, error) {
			return []byte(s.pipe.Render()), nil
		},
	}); err != nil {
		return err
	}
	_, err := secfs.CreateFile("sack", "reload", 0o600, &securityfs.FuncFile{
		OnRead: func(cred *sys.Cred) ([]byte, error) {
			if !cred.HasCap(sys.CapMacAdmin) {
				return nil, sys.EPERM
			}
			return []byte(s.ReloadStatus().Render()), nil
		},
	})
	return err
}
