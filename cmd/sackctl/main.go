// sackctl is the policy administration tool: check (parse + validate
// with conflict detection), compile (dump the enforcement-ready form),
// and fmt (canonical formatting) for SACK policy files.
//
// Usage:
//
//	sackctl check  <policy-file>   validate; non-zero exit on errors
//	sackctl compile <policy-file>  show states, rule sets, transitions
//	sackctl fmt    <policy-file>   print canonical formatting
//	sackctl simulate <policy-file> <event>...  dry-run the SSM over events
//	sackctl metrics <policy-file> [event...]  boot, drive events + a probe
//	                               workload, print hook/AVC metrics
//	sackctl diff <old-file> <new-file>  show what a policy reload changes
//	sackctl reload <old-file> <new-file> [event...]  boot the old policy,
//	                               drive events, commit the new policy and
//	                               print the diff the kernel applied
//	sackctl pack [name]            list or print the embedded policy pack
//	sackctl decide <policy-file> <subject> <object> <ops> [event...]  boot,
//	                               drive events, answer one access query
//	                               ("-" subject = unconfined; ops comma-
//	                               separated, e.g. read,write)
//	sackctl chaos <policy-file> <fault-spec> [event...]  drive events under
//	                               fault injection, print pipeline health
//	sackctl verify <policy-file> [-invariants <file>]  exhaustively check
//	                               an invariant set against the policy's
//	                               full situation product space; exit 0
//	                               when every invariant holds, 3 with a
//	                               witness trace per violation (defaults
//	                               to the pack baseline set)
//	sackctl bundle push <url> <group> <policy-file> [invariants-file]
//	                               validate (and, with an invariants
//	                               file, verify) the policy, then publish
//	                               it as the group's next bundle
//	                               generation on a fleetd at <url>
//	sackctl fleet status <url>     print a fleetd's aggregate fleet view
//	sackctl example                print a commented example policy
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	sack "repro"
	"repro/internal/fleet"
	"repro/internal/policy"
	"repro/internal/resilience"
	"repro/internal/sds"
	"repro/policies"
)

const examplePolicy = `# SACK policy: door control only in emergencies.
states {
  normal = 0
  emergency = 1
}

initial normal

permissions {
  NORMAL
  CONTROL_CAR_DOORS
}

state_per {
  normal:    NORMAL
  emergency: NORMAL, CONTROL_CAR_DOORS
}

per_rules {
  NORMAL {
    allow read /dev/vehicle/**
  }
  CONTROL_CAR_DOORS {
    allow read,write,ioctl /dev/vehicle/door*
    allow read,write,ioctl /dev/vehicle/window* subject /usr/bin/rescued
  }
}

transitions {
  normal -> emergency on crash_detected
  emergency -> normal on all_clear
}
`

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, os.ReadFile))
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer, readFile func(string) ([]byte, error)) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	switch args[0] {
	case "example":
		fmt.Fprint(stdout, examplePolicy)
		return 0
	case "check", "compile", "fmt":
		if len(args) != 2 {
			usage(stderr)
			return 2
		}
		data, err := readFile(args[1])
		if err != nil {
			fmt.Fprintf(stderr, "sackctl: reading policy: %v\n", err)
			return 1
		}
		switch args[0] {
		case "check":
			return check(string(data), stdout, stderr)
		case "compile":
			return compile(string(data), stdout, stderr)
		case "fmt":
			return format(string(data), stdout, stderr)
		}
	case "simulate":
		if len(args) < 3 {
			usage(stderr)
			return 2
		}
		data, err := readFile(args[1])
		if err != nil {
			fmt.Fprintf(stderr, "sackctl: reading policy: %v\n", err)
			return 1
		}
		return simulate(string(data), args[2:], stdout, stderr)
	case "metrics":
		if len(args) < 2 {
			usage(stderr)
			return 2
		}
		data, err := readFile(args[1])
		if err != nil {
			fmt.Fprintf(stderr, "sackctl: reading policy: %v\n", err)
			return 1
		}
		return metrics(string(data), args[2:], stdout, stderr)
	case "diff", "reload":
		if len(args) < 3 || (args[0] == "diff" && len(args) != 3) {
			usage(stderr)
			return 2
		}
		oldData, err := readFile(args[1])
		if err != nil {
			fmt.Fprintf(stderr, "sackctl: reading old policy: %v\n", err)
			return 1
		}
		newData, err := readFile(args[2])
		if err != nil {
			fmt.Fprintf(stderr, "sackctl: reading new policy: %v\n", err)
			return 1
		}
		if args[0] == "reload" {
			return reload(string(oldData), string(newData), args[3:], stdout, stderr)
		}
		return diff(string(oldData), string(newData), stdout, stderr)
	case "pack":
		if len(args) == 1 {
			for _, name := range policies.Names() {
				fmt.Fprintln(stdout, name)
			}
			return 0
		}
		src, err := policies.Load(args[1])
		if err != nil {
			fmt.Fprintf(stderr, "sackctl: %v\n", err)
			return 1
		}
		fmt.Fprint(stdout, src)
		return 0
	case "decide":
		if len(args) < 5 {
			usage(stderr)
			return 2
		}
		data, err := readFile(args[1])
		if err != nil {
			fmt.Fprintf(stderr, "sackctl: reading policy: %v\n", err)
			return 1
		}
		return decide(string(data), args[2], args[3], args[4], args[5:], stdout, stderr)
	case "chaos":
		if len(args) < 3 {
			usage(stderr)
			return 2
		}
		data, err := readFile(args[1])
		if err != nil {
			fmt.Fprintf(stderr, "sackctl: reading policy: %v\n", err)
			return 1
		}
		return chaos(string(data), args[2], args[3:], stdout, stderr)
	case "verify":
		var invFile string
		switch {
		case len(args) == 2:
		case len(args) == 4 && args[2] == "-invariants":
			invFile = args[3]
		default:
			usage(stderr)
			return 2
		}
		data, err := readFile(args[1])
		if err != nil {
			fmt.Fprintf(stderr, "sackctl: reading policy: %v\n", err)
			return 1
		}
		invSrc := policies.Baseline()
		if invFile != "" {
			inv, err := readFile(invFile)
			if err != nil {
				fmt.Fprintf(stderr, "sackctl: reading invariants: %v\n", err)
				return 1
			}
			invSrc = string(inv)
		}
		return verifyPolicy(string(data), invSrc, stdout, stderr)
	case "bundle":
		switch {
		case (len(args) == 5 || len(args) == 6) && args[1] == "push":
			data, err := readFile(args[4])
			if err != nil {
				fmt.Fprintf(stderr, "sackctl: reading policy: %v\n", err)
				return 1
			}
			var invariants string
			if len(args) == 6 {
				inv, err := readFile(args[5])
				if err != nil {
					fmt.Fprintf(stderr, "sackctl: reading invariants: %v\n", err)
					return 1
				}
				invariants = string(inv)
			}
			return bundlePush(args[2], args[3], string(data), invariants, stdout, stderr)
		case len(args) >= 5 && args[1] == "rollout":
			return bundleRollout(args[2], args[3], args[4], args[5:], stdout, stderr, readFile)
		}
		usage(stderr)
		return 2
	case "fleet":
		switch {
		case len(args) == 3 && args[1] == "status":
			return fleetStatus(args[2], stdout, stderr)
		case len(args) >= 4 && args[1] == "rollout":
			return fleetRollout(args[2], args[3], args[4:], stdout, stderr)
		}
		usage(stderr)
		return 2
	}
	usage(stderr)
	return 2
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: sackctl {check|compile|fmt} <policy-file>")
	fmt.Fprintln(w, "       sackctl simulate <policy-file> <event>...")
	fmt.Fprintln(w, "       sackctl metrics <policy-file> [event...]")
	fmt.Fprintln(w, "       sackctl diff <old-file> <new-file>")
	fmt.Fprintln(w, "       sackctl reload <old-file> <new-file> [event...]")
	fmt.Fprintln(w, "       sackctl pack [name]")
	fmt.Fprintln(w, "       sackctl decide <policy-file> <subject> <object> <ops> [event...]")
	fmt.Fprintln(w, "       sackctl chaos <policy-file> <fault-spec> [event...]")
	fmt.Fprintln(w, "       sackctl verify <policy-file> [-invariants <file>]")
	fmt.Fprintln(w, "       sackctl bundle push <url> <group> <policy-file> [invariants-file]")
	fmt.Fprintln(w, "       sackctl bundle rollout <url> <group> <policy-file> [-stages 10,50,100]")
	fmt.Fprintln(w, "              [-ring glob] [-min-samples n] [-max-denial-rate r]")
	fmt.Fprintln(w, "              [-max-pinned-frac r] [-invariants file]")
	fmt.Fprintln(w, "       sackctl fleet status <url>")
	fmt.Fprintln(w, "       sackctl fleet rollout <url> <group> {status|tick|abort}")
	fmt.Fprintln(w, "       sackctl example")
}

// reload boots a live system on the old policy, drives the given events
// to move the SSM off its initial state, then commits the new policy
// through the kernel's reload transaction — printing the diff the
// kernel *actually applied* (not merely the requested one), the reload
// status file, and the landing state. A dry run of exactly what a
// production write to the SACKfs policy file would do.
func reload(oldSrc, newSrc string, events []string, stdout, stderr io.Writer) int {
	system, err := sack.New(oldSrc)
	if err != nil {
		fmt.Fprintf(stderr, "sackctl: old policy: %v\n", err)
		return 1
	}
	for _, ev := range events {
		if err := system.Events().DeliverEvent(sack.Event(ev)); err != nil {
			fmt.Fprintf(stdout, "event %q: %v\n", ev, err)
		}
	}
	fmt.Fprintf(stdout, "state before reload: %s\n", system.CurrentState().Name)
	report, err := system.Reload(newSrc)
	if err != nil {
		fmt.Fprintf(stderr, "sackctl: reload rejected: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "applied: %s\n", report.Summary())
	if !report.Empty() {
		fmt.Fprint(stdout, report.String())
	}
	fmt.Fprintf(stdout, "state after reload: %s\n", system.CurrentState().Name)
	task := system.Kernel.Init()
	fmt.Fprintf(stdout, "\n-- %s --\n%s", sack.ReloadFile, mustRead(task, sack.ReloadFile, stderr))
	return 0
}

// chaos boots the policy with the given fault plan armed, drives the
// events through a heartbeat-emitting SDS (one simulated second per
// event, kernel watchdog ticking), and prints the pipeline health file
// plus the injector's per-target fault tally — a policy's degradation
// behaviour under sensor/transmitter failure, without writing a test.
func chaos(src, spec string, events []string, stdout, stderr io.Writer) int {
	plan, err := sack.ParseFaultSpec(spec, 1)
	if err != nil {
		fmt.Fprintf(stderr, "sackctl: %v\n", err)
		return 2
	}
	if len(events) == 0 {
		events = []string{"crash_detected", "all_clear"}
	}
	system, err := sack.New(src, sack.WithFaultPlan(plan))
	if err != nil {
		fmt.Fprintf(stderr, "sackctl: %v\n", err)
		return 1
	}
	task := system.Kernel.Init()
	clock := resilience.NewVirtualClock(time.Unix(1_700_000_000, 0))
	service, err := system.NewSDSWith(task, clock, nil, sds.WithHeartbeat(500*time.Millisecond))
	if err != nil {
		fmt.Fprintf(stderr, "sackctl: %v\n", err)
		return 1
	}
	for _, ev := range events {
		if err := service.DeliverEvent(sack.Event(ev)); err != nil {
			fmt.Fprintf(stdout, "event %q: %v\n", ev, err)
		}
		clock.Advance(time.Second)
		if err := service.Flush(); err != nil {
			fmt.Fprintf(stdout, "flush: %v\n", err)
		}
		system.Pipeline().Check(clock.Now())
		fmt.Fprintf(stdout, "event %q: state %s\n", ev, system.CurrentState().Name)
	}
	// Settle past the heartbeat window so a persistently stalled
	// transmitter is seen to lapse (and a recovered one to beat again).
	for end := clock.Now().Add(system.Pipeline().Window() + time.Second); clock.Now().Before(end); {
		clock.Advance(time.Second)
		_ = service.Flush()
		system.Pipeline().Check(clock.Now())
	}
	fmt.Fprintf(stdout, "final state: %s\n", system.CurrentState().Name)
	fmt.Fprintf(stdout, "\n-- %s --\n%s", sack.PipelineFile, mustRead(task, sack.PipelineFile, stderr))
	fmt.Fprintf(stdout, "\n-- fault injector --\n%s", system.Faults.Render())
	return 0
}

// decide boots an independent SACK system on the policy, drives the
// given events to move the SSM, then answers one access-control query
// through the typed decision API — the verdict, the deciding rule, and
// the situation state, with no counter or audit side effects. Exit code
// 0 for allowed, 3 for denied, so scripts can branch on the verdict.
func decide(src, subject, object, ops string, events []string, stdout, stderr io.Writer) int {
	mask, err := sack.ParseAccess(ops)
	if err != nil {
		fmt.Fprintf(stderr, "sackctl: %v\n", err)
		return 2
	}
	if subject == "-" {
		subject = ""
	}
	system, err := sack.New(src)
	if err != nil {
		fmt.Fprintf(stderr, "sackctl: %v\n", err)
		return 1
	}
	for _, ev := range events {
		deliverAndReport(system, ev, stdout)
	}
	d, err := system.Check(subject, object, mask)
	if err != nil {
		fmt.Fprintf(stderr, "sackctl: %v\n", err)
		return 1
	}
	verdict := "denied"
	if d.Allowed {
		verdict = "allowed"
	}
	fmt.Fprintf(stdout, "%s: %s %s in state %s\n", verdict, ops, object, d.State)
	if d.Rule != nil {
		fmt.Fprintf(stdout, "  rule:   %s\n", d.Rule.String())
	}
	fmt.Fprintf(stdout, "  reason: %s\n", d.Reason)
	if !d.Allowed {
		return 3
	}
	return 0
}

// deliverAndReport delivers one event and prints "from -> to" when a
// transition rule fired (a declared self-transition included) or
// "ignored in state" otherwise — unknown events and events refused
// while the pipeline is degraded alike.
func deliverAndReport(system *sack.System, ev string, stdout io.Writer) {
	from := system.CurrentState()
	_, _, _, hitBefore := system.SACK.Stats()
	_ = system.Events().DeliverEvent(sack.Event(ev))
	if _, _, _, hit := system.SACK.Stats(); hit > hitBefore {
		fmt.Fprintf(stdout, "event %q: %s -> %s\n", ev, from.Name, system.CurrentState().Name)
	} else {
		fmt.Fprintf(stdout, "event %q: ignored in state %s\n", ev, from.Name)
	}
}

// verifyPolicy runs the symbolic verifier: every invariant in the set
// is checked against the policy's full situation product space (event
// reachability, failsafe degradation, break-glass entries). Exit code 0
// when every invariant holds, 3 when any is violated (each violation
// printed with its witness trace), mirroring `decide`'s allowed/denied
// convention so scripts can branch on the verdict.
func verifyPolicy(src, invSrc string, stdout, stderr io.Writer) int {
	set, err := sack.ParseInvariants(invSrc)
	if err != nil {
		fmt.Fprintf(stderr, "sackctl: %v\n", err)
		return 2
	}
	rep, err := sack.VerifyPolicy(src, set)
	if err != nil {
		fmt.Fprintf(stderr, "sackctl: %v\n", err)
		return 1
	}
	fmt.Fprint(stdout, rep.Render())
	if !rep.OK() {
		return 3
	}
	return 0
}

// bundlePush validates the policy locally (fast feedback, same checker
// the server runs) — and, when an invariant set rides along, verifies
// it locally too — then publishes it as the group's next bundle
// generation on a fleetd. The server re-runs the verifier against both
// the embedded set and any group-registered set before accepting.
func bundlePush(url, group, src, invariants string, stdout, stderr io.Writer) int {
	if vr, err := sack.CheckPolicy(src); err != nil {
		fmt.Fprintf(stderr, "sackctl: %v\n", err)
		return 1
	} else if !vr.OK() {
		for _, issue := range vr.Issues {
			fmt.Fprintln(stderr, issue)
		}
		return 1
	}
	if invariants != "" {
		set, err := sack.ParseInvariants(invariants)
		if err != nil {
			fmt.Fprintf(stderr, "sackctl: %v\n", err)
			return 1
		}
		rep, err := sack.VerifyPolicy(src, set)
		if err != nil {
			fmt.Fprintf(stderr, "sackctl: %v\n", err)
			return 1
		}
		if !rep.OK() {
			fmt.Fprint(stderr, rep.Render())
			return 3
		}
	}
	b, err := fleet.NewClient(url).PushWithInvariants(group, src, invariants)
	if err != nil {
		fmt.Fprintf(stderr, "sackctl: push: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "pushed group %s generation %d (%s)\n", b.Group, b.Generation, b.ETag())
	return 0
}

// bundleRollout stages a candidate bundle for the group instead of
// publishing it outright: the plan's widening canary cohorts see it
// first, and the control plane's regression brakes (denial rate,
// failsafe pinning) judge each stage before it advances. The policy is
// checked locally before anything leaves the machine, exactly like
// `bundle push`.
func bundleRollout(url, group, policyFile string, rest []string, stdout, stderr io.Writer, readFile func(string) ([]byte, error)) int {
	fs := flag.NewFlagSet("bundle rollout", flag.ContinueOnError)
	fs.SetOutput(stderr)
	stages := fs.String("stages", "10,50,100", "comma-separated canary percentages, widening order")
	ring := fs.String("ring", "", "vehicle-id glob added to the first stage's cohort")
	minSamples := fs.Uint64("min-samples", 1, "canary decision-log records a stage needs before it is judged")
	maxDenialRate := fs.Float64("max-denial-rate", 0, "halt when the canary denied fraction exceeds this (0 = any denial halts, negative disables)")
	maxPinnedFrac := fs.Float64("max-pinned-frac", 0, "halt when the canary pinned/degraded fraction exceeds this (0 = any pin halts, negative disables)")
	invFile := fs.String("invariants", "", "invariant set file the candidate is verified against before staging")
	if err := fs.Parse(rest); err != nil {
		return 2
	}

	var plan fleet.RolloutPlan
	plan.MinSamples = *minSamples
	plan.MaxDenialRate = *maxDenialRate
	plan.MaxPinnedFrac = *maxPinnedFrac
	for _, part := range strings.Split(*stages, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			fmt.Fprintf(stderr, "sackctl: -stages wants percentages, got %q\n", part)
			return 2
		}
		plan.Stages = append(plan.Stages, fleet.RolloutStage{Percent: p})
	}
	if *ring != "" && len(plan.Stages) > 0 {
		plan.Stages[0].Ring = *ring
	}

	data, err := readFile(policyFile)
	if err != nil {
		fmt.Fprintf(stderr, "sackctl: reading policy: %v\n", err)
		return 1
	}
	src := string(data)
	if vr, err := sack.CheckPolicy(src); err != nil {
		fmt.Fprintf(stderr, "sackctl: %v\n", err)
		return 1
	} else if !vr.OK() {
		for _, issue := range vr.Issues {
			fmt.Fprintln(stderr, issue)
		}
		return 1
	}
	var invariants string
	if *invFile != "" {
		inv, err := readFile(*invFile)
		if err != nil {
			fmt.Fprintf(stderr, "sackctl: reading invariants: %v\n", err)
			return 1
		}
		invariants = string(inv)
		set, err := sack.ParseInvariants(invariants)
		if err != nil {
			fmt.Fprintf(stderr, "sackctl: %v\n", err)
			return 1
		}
		rep, err := sack.VerifyPolicy(src, set)
		if err != nil {
			fmt.Fprintf(stderr, "sackctl: %v\n", err)
			return 1
		}
		if !rep.OK() {
			fmt.Fprint(stderr, rep.Render())
			return 3
		}
	}

	st, err := fleet.NewClient(url).StartRollout(group, src, invariants, plan)
	if err != nil {
		fmt.Fprintf(stderr, "sackctl: rollout: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "staged rollout of group %s: candidate generation %d\n", st.Group, st.CandidateGen)
	fmt.Fprint(stdout, st.Render())
	return 0
}

// fleetRollout inspects or drives an in-flight staged rollout:
// `status` prints the operator view, `tick` judges the current stage
// against the plan's brakes (advancing, promoting, or halting it), and
// `abort` clears the rollout so the group accepts publishes again.
func fleetRollout(url, group string, rest []string, stdout, stderr io.Writer) int {
	verb := "status"
	if len(rest) > 0 {
		verb = rest[0]
	}
	c := fleet.NewClient(url)
	switch verb {
	case "status":
		st, err := c.RolloutStatus(group)
		if err != nil {
			fmt.Fprintf(stderr, "sackctl: rollout status: %v\n", err)
			return 1
		}
		fmt.Fprint(stdout, st.Render())
		return 0
	case "tick":
		st, err := c.RolloutTick(group)
		switch {
		case errors.Is(err, fleet.ErrRolloutHalted):
			// The brake fired (now or on an earlier tick): the fleet is
			// pinned to the stable bundle. Report it, distinctly.
			fmt.Fprintf(stdout, "rollout halted: %v\n", err)
			return 3
		case err != nil:
			fmt.Fprintf(stderr, "sackctl: rollout tick: %v\n", err)
			return 1
		case st.Stage >= st.Stages:
			fmt.Fprintf(stdout, "rollout promoted: group %s now at generation %d\n", st.Group, st.StableGen)
			return 0
		}
		fmt.Fprint(stdout, st.Render())
		return 0
	case "abort":
		if err := c.AbortRollout(group); err != nil {
			fmt.Fprintf(stderr, "sackctl: rollout abort: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "rollout aborted: group %s keeps its stable bundle\n", group)
		return 0
	}
	usage(stderr)
	return 2
}

// fleetStatus prints a fleetd's aggregate view: per-group generation
// and convergence, plus the decision-log ingestion counters.
func fleetStatus(url string, stdout, stderr io.Writer) int {
	st, err := fleet.NewClient(url).FleetStatus()
	if err != nil {
		fmt.Fprintf(stderr, "sackctl: fleet status: %v\n", err)
		return 1
	}
	fmt.Fprint(stdout, st.Render())
	return 0
}

// mustRead reads a securityfs file for display, reporting (not
// aborting) on error.
func mustRead(task *sack.Task, path string, stderr io.Writer) string {
	out, err := task.ReadFileAll(path)
	if err != nil {
		fmt.Fprintf(stderr, "sackctl: reading %s: %v\n", path, err)
		return ""
	}
	return string(out)
}

// metrics boots an independent SACK system on the policy, runs a device
// probe workload in the initial state and after each given event, then
// prints the kernel's hook-latency and AVC-counter view — a quick
// performance profile of a policy without writing a benchmark.
func metrics(src string, events []string, stdout, stderr io.Writer) int {
	system, err := sack.New(src)
	if err != nil {
		fmt.Fprintf(stderr, "sackctl: %v\n", err)
		return 1
	}
	task := system.Kernel.Init()
	probe := func() {
		buf := make([]byte, 8)
		for _, dev := range []string{"door0", "door1", "window0", "window1"} {
			fd, err := task.Open("/dev/vehicle/"+dev, sack.ORdonly, 0)
			if err != nil {
				continue // denied in this state: the denial is the data point
			}
			task.Read(fd, buf)
			task.Ioctl(fd, 1, 0)
			task.Close(fd)
		}
	}
	probe()
	for _, ev := range events {
		deliverAndReport(system, ev, stdout)
		probe()
	}
	out, err := task.ReadFileAll(sack.MetricsFile)
	if err != nil {
		fmt.Fprintf(stderr, "sackctl: reading metrics: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "-- %s --\n%s", sack.MetricsFile, out)
	return 0
}

// diff compiles both policies and prints what a reload would change.
func diff(oldSrc, newSrc string, stdout, stderr io.Writer) int {
	oldC, _, err := policy.Load(oldSrc)
	if err != nil {
		fmt.Fprintf(stderr, "sackctl: old policy: %v\n", err)
		return 1
	}
	newC, _, err := policy.Load(newSrc)
	if err != nil {
		fmt.Fprintf(stderr, "sackctl: new policy: %v\n", err)
		return 1
	}
	changes := policy.Diff(oldC, newC)
	if len(changes) == 0 {
		fmt.Fprintln(stdout, "policies are equivalent")
		return 0
	}
	fmt.Fprint(stdout, policy.FormatDiff(changes))
	return 0
}

// simulate dry-runs the situation state machine over an event sequence,
// printing each step and the permissions active afterwards.
func simulate(src string, events []string, stdout, stderr io.Writer) int {
	c, vr, err := policy.Load(src)
	if err != nil {
		fmt.Fprintf(stderr, "sackctl: %v\n", err)
		return 1
	}
	for _, w := range vr.Warnings() {
		fmt.Fprintln(stderr, w)
	}
	cur := c.Initial
	printState := func() {
		perms := append([]string(nil), c.StatePerms[cur]...)
		sort.Strings(perms)
		fmt.Fprintf(stdout, "  state=%s permissions=[%s] rules=%d\n",
			cur, strings.Join(perms, ","), c.StateSets[cur].Len())
	}
	fmt.Fprintln(stdout, "initial:")
	printState()
	for _, ev := range events {
		if to, ok := c.Next(cur, policy.Event(ev)); ok {
			fmt.Fprintf(stdout, "event %q: %s -> %s\n", ev, cur, to.Name)
			cur = to.Name
		} else {
			fmt.Fprintf(stdout, "event %q: ignored in state %s\n", ev, cur)
		}
		printState()
	}
	return 0
}

func check(src string, stdout, stderr io.Writer) int {
	f, err := policy.Parse(src)
	if err != nil {
		fmt.Fprintf(stderr, "sackctl: %v\n", err)
		return 1
	}
	vr := policy.Validate(f)
	for _, issue := range vr.Issues {
		fmt.Fprintln(stdout, issue)
	}
	if !vr.OK() {
		return 1
	}
	fmt.Fprintf(stdout, "OK: %d states, %d permissions, %d transitions, %d warnings\n",
		len(f.States), len(f.Permissions), len(f.Transitions), len(vr.Warnings()))
	return 0
}

func compile(src string, stdout, stderr io.Writer) int {
	c, vr, err := policy.Load(src)
	if err != nil {
		fmt.Fprintf(stderr, "sackctl: %v\n", err)
		return 1
	}
	for _, w := range vr.Warnings() {
		fmt.Fprintln(stderr, w)
	}
	fmt.Fprintf(stdout, "initial state: %s\n\n", c.Initial)
	fmt.Fprintln(stdout, "states:")
	for _, st := range c.States {
		marks := ""
		if st.Name == c.Initial {
			marks = "  (initial)"
		}
		fmt.Fprintf(stdout, "  %-24s encoding=%d%s\n", st.Name, st.Encoding, marks)
		perms := c.StatePerms[st.Name]
		sort.Strings(perms)
		fmt.Fprintf(stdout, "    permissions: %s\n", strings.Join(perms, ", "))
		rs := c.StateSets[st.Name]
		for _, r := range rs.Rules() {
			fmt.Fprintf(stdout, "    rule: %s\n", r.String())
		}
	}
	fmt.Fprintln(stdout, "\ntransitions:")
	for _, t := range c.Transitions {
		fmt.Fprintf(stdout, "  %s -> %s on %s\n", t.From, t.To, t.Event)
	}
	fmt.Fprintf(stdout, "\ncoverage: %d patterns\n", c.Coverage.NumPatterns())
	return 0
}

func format(src string, stdout, stderr io.Writer) int {
	f, err := policy.Parse(src)
	if err != nil {
		fmt.Fprintf(stderr, "sackctl: %v\n", err)
		return 1
	}
	fmt.Fprint(stdout, policy.Format(f))
	return 0
}
