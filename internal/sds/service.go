package sds

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/kernel"
	"repro/internal/policy"
	"repro/internal/resilience"
)

// Transmitter delivers detected situation events to the kernel. The
// production implementation writes the SACKfs events file; tests may
// substitute a recorder.
type Transmitter interface {
	Transmit(events []string) error
}

// TransmitterFunc adapts a function to the Transmitter interface.
type TransmitterFunc func(events []string) error

// Transmit implements Transmitter.
func (f TransmitterFunc) Transmit(events []string) error { return f(events) }

// KernelTransmitter writes events to /sys/kernel/security/SACK/events on
// behalf of a (privileged) task, keeping the descriptor open across
// transmissions for low latency — the securityfs-based channel of §III-C.
type KernelTransmitter struct {
	task *kernel.Task
	fd   int
}

// NewKernelTransmitter opens the SACKfs events file. The task needs DAC
// access (root) and CAP_MAC_ADMIN for the writes to be accepted.
func NewKernelTransmitter(task *kernel.Task) (*KernelTransmitter, error) {
	fd, err := task.Open(core.EventsFile, 1 /* O_WRONLY */, 0)
	if err != nil {
		return nil, fmt.Errorf("sds: opening %s: %w", core.EventsFile, err)
	}
	return &KernelTransmitter{task: task, fd: fd}, nil
}

// Transmit writes one line per event.
func (k *KernelTransmitter) Transmit(events []string) error {
	for _, ev := range events {
		if _, err := k.task.Write(k.fd, []byte(ev+"\n")); err != nil {
			return fmt.Errorf("sds: transmitting %q: %w", ev, err)
		}
	}
	return nil
}

// Close releases the descriptor.
func (k *KernelTransmitter) Close() error { return k.task.Close(k.fd) }

// Resilience defaults (overridable per service with options).
const (
	DefaultQueueCapacity = 64
	DefaultBackoffBase   = 100 * time.Millisecond
	DefaultBackoffMax    = 5 * time.Second
)

// DefaultDarkThreshold is how many consecutive stale readings mark a
// sensor dark.
const DefaultDarkThreshold = 3

// SensorHealth is the per-sensor dropout tracker's view of one sensor.
type SensorHealth struct {
	StaleRun int       // consecutive polls with a stale reading
	Dark     bool      // StaleRun crossed the dark threshold
	LastLive time.Time // timestamp of the last fresh reading
}

// Service is the SDS daemon: it polls sensors, runs detectors, and
// transmits any detected events. Detected events enter a bounded queue
// drained to the transmitter with exponential-backoff retry; per-sensor
// dropout tracking and an optional heartbeat report the service's own
// health to the kernel-side pipeline watchdog.
type Service struct {
	clock     resilience.Clock
	sensors   []Sensor
	detectors []Detector
	tx        Transmitter

	queueCap    int
	baseBackoff time.Duration
	maxBackoff  time.Duration
	hbInterval  time.Duration // 0 = heartbeat disabled
	hbSecret    []byte        // non-empty = sign heartbeats (HMAC)

	mu      sync.Mutex
	polls   uint64
	snapBuf Snapshot // reused across polls (fixed sensor key set)

	queue       []string
	drops       uint64 // queue-full rejections
	retries     uint64 // failed transmit attempts
	attempts    int    // consecutive failures feeding the backoff curve
	nextAttempt time.Time
	rng         *rand.Rand // backoff jitter; seeded for replayability

	hbSeq    uint64
	lastBeat time.Time

	health map[string]*SensorHealth
}

// ServiceOption configures the resilience features of a Service.
type ServiceOption func(*Service)

// WithQueueCapacity bounds the event queue (backpressure instead of
// unbounded growth when the kernel channel is down).
func WithQueueCapacity(n int) ServiceOption {
	return func(s *Service) {
		if n > 0 {
			s.queueCap = n
		}
	}
}

// WithBackoff sets the retry backoff curve for transmit failures.
func WithBackoff(base, max time.Duration) ServiceOption {
	return func(s *Service) {
		if base > 0 {
			s.baseBackoff = base
		}
		if max >= base {
			s.maxBackoff = max
		}
	}
}

// WithHeartbeat enables the SDS heartbeat at the given interval. The
// heartbeat rides the same transmitter as events, so a stalled channel
// silences it — which is what arms the kernel watchdog.
func WithHeartbeat(interval time.Duration) ServiceOption {
	return func(s *Service) { s.hbInterval = interval }
}

// WithHeartbeatSecret makes the service HMAC-sign every heartbeat with
// the shared secret, matching a kernel booted with the same secret. The
// sequence number under the MAC makes captured lines unreplayable.
func WithHeartbeatSecret(secret []byte) ServiceOption {
	return func(s *Service) { s.hbSecret = append([]byte(nil), secret...) }
}

// WithJitterSeed reseeds the backoff jitter source (deterministic tests
// exercising distinct retry schedules).
func WithJitterSeed(seed int64) ServiceOption {
	return func(s *Service) { s.rng = rand.New(rand.NewSource(seed)) }
}

// NewService assembles an SDS instance.
func NewService(clock resilience.Clock, sensors []Sensor, detectors []Detector, tx Transmitter, opts ...ServiceOption) *Service {
	s := &Service{
		clock: clock, sensors: sensors, detectors: detectors, tx: tx,
		queueCap:    DefaultQueueCapacity,
		baseBackoff: DefaultBackoffBase,
		maxBackoff:  DefaultBackoffMax,
		rng:         rand.New(rand.NewSource(1)),
		health:      make(map[string]*SensorHealth),
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Poll performs one detection cycle and returns the events detected.
// Detected events are queued and the queue flushed to the transmitter;
// a transmit failure is returned (and the events retained for retry on
// a later poll, subject to backoff).
func (s *Service) Poll() ([]string, error) {
	now := s.clock.Now()
	if s.snapBuf == nil {
		s.snapBuf = make(Snapshot, len(s.sensors))
	}
	snap := s.snapBuf
	for _, sensor := range s.sensors {
		snap[sensor.Name()] = sensor.Read(now)
	}
	var events []string
	for _, d := range s.detectors {
		events = append(events, d.Detect(snap)...)
	}
	s.mu.Lock()
	s.polls++
	s.observeHealthLocked(snap)
	var dropErr error
	for _, ev := range events {
		if err := s.enqueueLocked(ev); err != nil {
			dropErr = err
		}
	}
	err := s.flushLocked(now)
	s.mu.Unlock()
	if err == nil {
		err = dropErr
	}
	return events, err
}

// DeliverEvent feeds an externally produced event into the SDS queue —
// the sack.EventSink contract over the detector pipeline. The event
// rides the same bounded queue, retry, and heartbeat machinery as
// detector events; a full queue reports core.ErrQueueFull. Transmit
// failures are not returned: the event is queued and retried on later
// polls.
func (s *Service) DeliverEvent(ev policy.Event) error {
	now := s.clock.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.enqueueLocked(string(ev)); err != nil {
		return err
	}
	_ = s.flushLocked(now) // best effort; failures back off and retry
	return nil
}

// Flush attempts to drain the queue now (respecting backoff), returning
// any transmit error. Poll calls this automatically; explicit callers
// are shutdown paths and tests.
func (s *Service) Flush() error {
	now := s.clock.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushLocked(now)
}

func (s *Service) enqueueLocked(ev string) error {
	if len(s.queue) >= s.queueCap {
		s.drops++
		return fmt.Errorf("%w: %q (capacity %d)", core.ErrQueueFull, ev, s.queueCap)
	}
	s.queue = append(s.queue, ev)
	return nil
}

// flushLocked drains the queue (and emits a due heartbeat) through the
// transmitter. The heartbeat line leads the batch so the kernel observes
// recovery before the retried events, and a heartbeat reporting dark
// sensors pins the SSM before suspect events can reach it. On failure
// the queue is retained and the next attempt scheduled on the backoff
// curve; heartbeats are never retried stale — a fresh one is generated
// when the next attempt is due.
func (s *Service) flushLocked(now time.Time) error {
	hbDue := s.hbInterval > 0 && (s.lastBeat.IsZero() || now.Sub(s.lastBeat) >= s.hbInterval)
	if len(s.queue) == 0 && !hbDue {
		return nil
	}
	if !s.nextAttempt.IsZero() && now.Before(s.nextAttempt) {
		return nil // backing off
	}
	batch := make([]string, 0, len(s.queue)+1)
	if hbDue {
		s.hbSeq++
		batch = append(batch, s.heartbeatLocked(now).String())
	}
	batch = append(batch, s.queue...)
	if err := s.tx.Transmit(batch); err != nil {
		s.retries++
		s.attempts++
		s.nextAttempt = now.Add(s.backoffLocked())
		return err
	}
	s.queue = s.queue[:0]
	s.attempts = 0
	s.nextAttempt = time.Time{}
	if hbDue {
		s.lastBeat = now
	}
	return nil
}

// backoffLocked computes the next retry delay: exponential in the
// consecutive-failure count, capped, with ±25% seeded jitter so multiple
// services don't thundering-herd the channel while replays stay exact.
func (s *Service) backoffLocked() time.Duration {
	d := s.baseBackoff << (s.attempts - 1)
	if d <= 0 || d > s.maxBackoff {
		d = s.maxBackoff
	}
	return time.Duration(float64(d) * (0.75 + s.rng.Float64()/2))
}

func (s *Service) heartbeatLocked(now time.Time) core.Heartbeat {
	h := core.Heartbeat{
		Seq: s.hbSeq, At: now,
		Queue: len(s.queue), Cap: s.queueCap,
		Retries: s.retries, Drops: s.drops,
		Dark: s.darkLocked(),
	}
	if len(s.hbSecret) > 0 {
		h = h.Sign(s.hbSecret)
	}
	return h
}

func (s *Service) observeHealthLocked(snap Snapshot) {
	for _, sensor := range s.sensors {
		name := sensor.Name()
		h := s.health[name]
		if h == nil {
			h = &SensorHealth{}
			s.health[name] = h
		}
		r := snap[name]
		if r.Stale {
			h.StaleRun++
			if h.StaleRun >= DefaultDarkThreshold {
				h.Dark = true
			}
		} else {
			h.StaleRun = 0
			h.Dark = false
			h.LastLive = r.At
		}
	}
}

// darkLocked lists dark sensors in the (stable) sensor declaration order.
func (s *Service) darkLocked() []string {
	var out []string
	for _, sensor := range s.sensors {
		if h := s.health[sensor.Name()]; h != nil && h.Dark {
			out = append(out, sensor.Name())
		}
	}
	return out
}

// Health snapshots the per-sensor dropout trackers.
func (s *Service) Health() map[string]SensorHealth {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]SensorHealth, len(s.health))
	for name, h := range s.health {
		out[name] = *h
	}
	return out
}

// DarkSensors lists the sensors currently considered dark.
func (s *Service) DarkSensors() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.darkLocked()
}

// QueueStats reports (queued events, capacity, failed transmit attempts,
// queue-full drops).
func (s *Service) QueueStats() (depth, capacity int, retries, drops uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue), s.queueCap, s.retries, s.drops
}

// Polls reports how many detection cycles have run.
func (s *Service) Polls() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.polls
}
