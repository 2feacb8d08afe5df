// Package sds implements the paper's Situation Detection Service: the
// user-space daemon that samples vehicle sensors, detects situation
// events (vehicle crash, speed band changes, parking), and transmits them
// to the kernel SSM through the SACKfs events file. Detection is
// edge-triggered — the SDS "only transmits situation events when
// detected" (§III-C) rather than streaming raw sensor data.
//
// The service reads time through resilience.Clock, the repository's one
// injectable clock; drive traces and tests pass resilience.NewVirtualClock.
package sds

import (
	"time"

	"repro/internal/resilience"
)

// VirtualClock is resilience.VirtualClock under its former name, kept
// only so the separately built perfbench module compiles unedited. New
// code uses resilience.VirtualClock directly.
type VirtualClock = resilience.VirtualClock

// NewVirtualClock is resilience.NewVirtualClock, kept with the alias
// above for the same reason.
func NewVirtualClock(start time.Time) *VirtualClock { return resilience.NewVirtualClock(start) }
