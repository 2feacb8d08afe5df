// sackmon runs the situation detection service against a scripted drive
// trace and prints every sensor-driven situation transition along with
// the kernel's view of the state — a monitoring/debugging aid for SACK
// deployments.
//
// Usage:
//
//	sackmon [-trace city-crash|highway|park] [-policy <file>] [-metrics]
//	        [-pipeline] [-faults <spec>] [-fault-seed <n>]
//	        [-failsafe <state>] [-heartbeat <dur>]
//	        [-fleet <url>] [-fleet-group <g>] [-fleet-vehicle <id>]
//	        [-fleet-key id=hexsecret]
//
// -faults arms deterministic fault injection (see sack.ParseFaultSpec
// for the spec grammar); -pipeline prints the kernel's pipeline health
// file after the run; -heartbeat makes the SDS emit heartbeats and
// ticks the kernel watchdog every trace point, so a stalled transmitter
// degrades the SSM to the policy's (or -failsafe's) fail-safe state.
//
// -fleet points at a fleetd and prints its aggregate fleet view after
// the run. With -fleet-group the monitored vehicle additionally joins
// the fleet as an agent: it pulls the group's current bundle before the
// trace (the bundle replaces -policy / the built-in policy through the
// reload transaction) and ships its status and audit records upstream
// after the trace, so it appears in the printed view. -fleet-key pins
// the agent to a fleetd signing key: bundles whose detached signature
// does not verify against it (unsigned ones included) are refused
// before the reload and the agent keeps its running policy.
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	sack "repro"
	"repro/internal/fleet"
	"repro/internal/resilience"
	"repro/internal/sds"
	"repro/internal/sign"
	"repro/internal/trace"
)

const defaultPolicy = `
states {
  parking_with_driver = 0
  parking_without_driver = 1
  driving = 2
  emergency = 3
}

initial parking_with_driver

permissions {
  DEVICE_READ
  CONTROL_CAR_DOORS
}

state_per {
  parking_with_driver:    DEVICE_READ, CONTROL_CAR_DOORS
  parking_without_driver: DEVICE_READ
  driving:                DEVICE_READ
  emergency:              DEVICE_READ, CONTROL_CAR_DOORS
}

per_rules {
  DEVICE_READ {
    allow read /dev/vehicle/**
  }
  CONTROL_CAR_DOORS {
    allow read,write,ioctl /dev/vehicle/door*
  }
}

transitions {
  parking_with_driver -> driving on driving_started
  driving -> parking_with_driver on driving_stopped
  parking_with_driver -> parking_without_driver on parked_without_driver
  parking_without_driver -> parking_with_driver on parked_with_driver
  driving -> emergency on crash_detected
  emergency -> parking_with_driver on all_clear
}
`

// runConfig carries the flag values into the testable entry point.
type runConfig struct {
	trace     string
	policy    string // policy file path; "" selects the built-in policy
	metrics   bool
	pipeline  bool          // print the pipeline health file after the run
	faults    string        // fault-plan spec; "" disables injection
	faultSeed int64         // deterministic seed for the fault plan
	failsafe  string        // fail-safe state override; "" keeps the policy's
	heartbeat time.Duration // SDS heartbeat interval; 0 disables

	fleetURL     string // fleetd base URL; "" disables the fleet view
	fleetGroup   string // with fleetURL: join this group as an agent
	fleetVehicle string // agent vehicle id (default "sackmon")
	fleetKey     string // id=hexsecret: only apply bundles signed by this key

	stdout   io.Writer
	readFile func(string) ([]byte, error)
}

func main() {
	var cfg runConfig
	flag.StringVar(&cfg.trace, "trace", "city-crash", "drive trace: city-crash, highway, or park")
	flag.StringVar(&cfg.policy, "policy", "", "SACK policy file (default: built-in 4-state policy)")
	flag.BoolVar(&cfg.metrics, "metrics", false, "print the kernel hook/AVC metrics view after the run")
	flag.BoolVar(&cfg.pipeline, "pipeline", false, "print the kernel pipeline health view after the run")
	flag.StringVar(&cfg.faults, "faults", "", "fault-plan spec, e.g. stall:transmitter:after=10:for=5")
	flag.Int64Var(&cfg.faultSeed, "fault-seed", 1, "deterministic seed for the fault plan")
	flag.StringVar(&cfg.failsafe, "failsafe", "", "fail-safe state override (default: the policy's failsafe)")
	flag.DurationVar(&cfg.heartbeat, "heartbeat", 0, "SDS heartbeat interval (0 disables; enables the kernel watchdog)")
	flag.StringVar(&cfg.fleetURL, "fleet", "", "fleetd base URL; print its fleet view after the run")
	flag.StringVar(&cfg.fleetGroup, "fleet-group", "", "join this fleet group as an agent (requires -fleet)")
	flag.StringVar(&cfg.fleetVehicle, "fleet-vehicle", "sackmon", "vehicle id to join the fleet as")
	flag.StringVar(&cfg.fleetKey, "fleet-key", "", "id=hexsecret HMAC key; refuse fleet bundles that do not verify against it")
	flag.Parse()
	cfg.stdout, cfg.readFile = os.Stdout, os.ReadFile
	os.Exit(run(cfg))
}

// run is the testable entry point; it returns the process exit code.
func run(cfg runConfig) int {
	stdout := cfg.stdout
	policyText := defaultPolicy
	if cfg.policy != "" {
		data, err := cfg.readFile(cfg.policy)
		if err != nil {
			log.Printf("sackmon: %v", err)
			return 1
		}
		policyText = string(data)
	}

	var tr trace.Trace
	switch cfg.trace {
	case "city-crash":
		tr = trace.CityDriveWithCrash()
	case "highway":
		tr = trace.HighwayDrive()
	case "park":
		tr = trace.ParkAndLeave()
	default:
		log.Printf("sackmon: unknown trace %q", cfg.trace)
		return 2
	}

	opts := []sack.Option{sack.WithMode(sack.Independent)}
	if cfg.faults != "" {
		plan, err := sack.ParseFaultSpec(cfg.faults, cfg.faultSeed)
		if err != nil {
			log.Printf("sackmon: %v", err)
			return 2
		}
		opts = append(opts, sack.WithFaultPlan(plan))
	}
	if cfg.failsafe != "" {
		opts = append(opts, sack.WithFailsafe(cfg.failsafe))
	}
	if cfg.fleetGroup != "" {
		if cfg.fleetURL == "" {
			log.Printf("sackmon: -fleet-group requires -fleet")
			return 2
		}
		vehicleID := cfg.fleetVehicle
		if vehicleID == "" {
			vehicleID = "sackmon"
		}
		var keyring *sign.Keyring
		if cfg.fleetKey != "" {
			id, hexSecret, ok := strings.Cut(cfg.fleetKey, "=")
			if !ok || id == "" || hexSecret == "" {
				log.Printf("sackmon: -fleet-key wants id=hexsecret, got %q", cfg.fleetKey)
				return 2
			}
			secret, err := hex.DecodeString(hexSecret)
			if err != nil {
				log.Printf("sackmon: -fleet-key secret is not hex: %v", err)
				return 2
			}
			_, verifier := sign.NewHMAC(id, secret)
			keyring = sign.NewKeyring(verifier)
		}
		// The monitoring agent runs the full default stack (retry,
		// breaker, timeout, cached-bundle fallback) so its policy
		// stats below show real breaker state against a flaky fleetd.
		opts = append(opts, sack.WithFleet(sack.FleetAgentConfig{
			Vehicle:   vehicleID,
			Group:     cfg.fleetGroup,
			Transport: sack.NewFleetClient(cfg.fleetURL),
			PollWait:  time.Millisecond,
			Keyring:   keyring,
		}, fleet.WithDefaultResilience()))
	}
	sys, err := sack.New(policyText, opts...)
	if err != nil {
		log.Printf("sackmon: %v", err)
		return 1
	}
	root := sys.Kernel.Init()

	if sys.Fleet != nil {
		// Converge on the group's bundle before driving: the download
		// replaces the boot policy through the reload transaction.
		if err := sys.Fleet.SyncOnce(); err != nil {
			log.Printf("sackmon: fleet sync: %v", err)
			return 1
		}
		fmt.Fprintf(stdout, "fleet: %s joined group %s at generation %d\n",
			cfg.fleetVehicle, cfg.fleetGroup, sys.Fleet.AppliedGeneration())
	}

	clock := resilience.NewVirtualClock(time.Unix(1_700_000_000, 0))
	detectors := []sds.Detector{
		sds.DrivingDetector(),
		sds.CrashDetector(8.0),
		sds.AllClearDetector(8.0),
		sds.ParkingDetector(),
		sds.SpeedBandDetector(100),
	}
	var sdsOpts []sack.SDSOption
	if cfg.heartbeat > 0 {
		sdsOpts = append(sdsOpts, sds.WithHeartbeat(cfg.heartbeat))
	}
	service, err := sys.NewSDSWith(root, clock, detectors, sdsOpts...)
	if err != nil {
		log.Printf("sackmon: %v", err)
		return 1
	}

	fmt.Fprintf(stdout, "== sackmon: trace %q ==\n", tr.Name)
	fmt.Fprintf(stdout, "%-10s %-8s %-7s %-7s %-28s %s\n", "time", "speed", "accel", "drv/ign", "events", "kernel state")
	var prev time.Duration
	for _, p := range tr.Points {
		if p.T > prev {
			clock.Advance(p.T - prev)
			prev = p.T
		}
		trace.Apply(p, sys.Vehicle.Dynamics)
		events, err := service.Poll()
		if err != nil && cfg.faults == "" {
			log.Printf("sackmon: poll: %v", err)
			return 1
		}
		if err != nil {
			// Injected faults make delivery fail transiently; the SDS
			// retries with backoff, so report and keep driving.
			fmt.Fprintf(stdout, "!! poll: %v\n", err)
		}
		sys.Pipeline().Check(clock.Now())
		di := fmt.Sprintf("%v/%v", b2i(p.Driver), b2i(p.Ignition))
		stateLine, err := root.ReadFileAll("/sys/kernel/security/SACK/state")
		if err != nil {
			log.Printf("sackmon: state read: %v", err)
			return 1
		}
		fmt.Fprintf(stdout, "%-10s %-8.1f %-7.1f %-7s %-28v %s", p.T, p.Speed, p.AccelG, di, events, stateLine)
	}

	transitions, ignored := sys.SACK.Machine().Stats()
	fmt.Fprintf(stdout, "\nSSM: %d transitions, %d ignored events, %d polls\n",
		transitions, ignored, service.Polls())

	if cfg.metrics {
		out, err := root.ReadFileAll(sack.MetricsFile)
		if err != nil {
			log.Printf("sackmon: metrics read: %v", err)
			return 1
		}
		fmt.Fprintf(stdout, "\n-- %s --\n%s", sack.MetricsFile, out)
	}
	if cfg.pipeline {
		out, err := root.ReadFileAll(sack.PipelineFile)
		if err != nil {
			log.Printf("sackmon: pipeline read: %v", err)
			return 1
		}
		fmt.Fprintf(stdout, "\n-- %s --\n%s", sack.PipelineFile, out)
	}
	if cfg.fleetURL != "" {
		if sys.Fleet != nil {
			// Ship the run's audit records and final status upstream so
			// the view below includes this vehicle.
			if err := sys.Fleet.SyncOnce(); err != nil {
				fmt.Fprintf(stdout, "!! fleet sync: %v\n", err)
			}
		}
		st, err := sack.NewFleetClient(cfg.fleetURL).FleetStatus()
		if err != nil {
			log.Printf("sackmon: fleet status: %v", err)
			return 1
		}
		fmt.Fprintf(stdout, "\n-- fleet %s --\n%s", cfg.fleetURL, st.Render())
		if sys.Fleet != nil {
			fmt.Fprintf(stdout, "-- agent policy --\n%s",
				resilience.Render(resilience.StatsOf(sys.Fleet.Policy())))
		}
	}
	return 0
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
