package resilience

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/shard"
)

// Bulkhead defaults.
const (
	DefaultBulkheadCapacity = 64
	DefaultBulkheadQueue    = 256
)

// BulkheadConfig tunes a bulkhead. Zero values select defaults; a
// negative Queue means no queueing (admit or shed immediately).
type BulkheadConfig struct {
	// Capacity bounds concurrent admissions.
	Capacity int
	// Queue bounds callers waiting for an admission slot; a caller
	// arriving with the queue full is shed with ErrBulkheadFull.
	Queue int
}

// Bulkhead bounds concurrency: at most Capacity operations run at
// once, at most Queue callers wait for a slot, and everyone beyond
// that is shed immediately with ErrBulkheadFull. fleetd runs one per
// vehicle group, so a flooding group saturates its own compartment
// (and gets 429s) while other groups' ingestion is untouched.
type Bulkhead struct {
	sem      chan struct{}
	queueCap int64
	queued   atomic.Int64

	admitted shard.Counter
	shed     shard.Counter
}

// NewBulkhead builds a bulkhead.
func NewBulkhead(cfg BulkheadConfig) *Bulkhead {
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultBulkheadCapacity
	}
	if cfg.Queue == 0 {
		cfg.Queue = DefaultBulkheadQueue
	}
	if cfg.Queue < 0 {
		cfg.Queue = 0
	}
	return &Bulkhead{
		sem:      make(chan struct{}, cfg.Capacity),
		queueCap: int64(cfg.Queue),
		admitted: shard.NewCounter(),
		shed:     shard.NewCounter(),
	}
}

// Do runs op once a slot is free, or sheds it with ErrBulkheadFull.
func (b *Bulkhead) Do(ctx context.Context, op Op) error {
	select {
	case b.sem <- struct{}{}:
	default:
		// No free slot: take a bounded queue position or shed.
		if b.queued.Add(1) > b.queueCap {
			b.queued.Add(-1)
			b.shed.Add(1)
			return ErrBulkheadFull
		}
		select {
		case b.sem <- struct{}{}:
			b.queued.Add(-1)
		case <-ctx.Done():
			b.queued.Add(-1)
			return context.Cause(ctx)
		}
	}
	b.admitted.Add(1)
	defer func() { <-b.sem }()
	return op(ctx)
}

// Active reports operations currently admitted.
func (b *Bulkhead) Active() int { return len(b.sem) }

// Queued reports callers currently waiting for a slot.
func (b *Bulkhead) Queued() int { return int(b.queued.Load()) }

// Shed reports callers rejected with ErrBulkheadFull so far.
func (b *Bulkhead) Shed() uint64 { return b.shed.Load() }

// Admitted reports operations ever admitted.
func (b *Bulkhead) Admitted() uint64 { return b.admitted.Load() }

// KeyedBulkheads is a lazily populated family of identically sized
// bulkheads, one per key — fleetd's per-vehicle-group ingestion
// compartments.
type KeyedBulkheads struct {
	cfg BulkheadConfig
	mu  sync.Mutex
	m   map[string]*Bulkhead
}

// NewKeyedBulkheads builds the family; each key's bulkhead is created
// on first use with cfg.
func NewKeyedBulkheads(cfg BulkheadConfig) *KeyedBulkheads {
	return &KeyedBulkheads{cfg: cfg, m: make(map[string]*Bulkhead)}
}

// Get returns the key's bulkhead, creating it on first use.
func (k *KeyedBulkheads) Get(key string) *Bulkhead {
	k.mu.Lock()
	defer k.mu.Unlock()
	b := k.m[key]
	if b == nil {
		b = NewBulkhead(k.cfg)
		k.m[key] = b
	}
	return b
}

// Do runs op under the key's bulkhead.
func (k *KeyedBulkheads) Do(ctx context.Context, key string, op Op) error {
	return k.Get(key).Do(ctx, op)
}

// KeyedStats is one key's bulkhead snapshot.
type KeyedStats struct {
	Key      string `json:"key"`
	Active   int    `json:"active"`
	Queued   int    `json:"queued"`
	Admitted uint64 `json:"admitted"`
	Shed     uint64 `json:"shed"`
}

// Stats snapshots every key's bulkhead, sorted by key.
func (k *KeyedBulkheads) Stats() []KeyedStats {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make([]KeyedStats, 0, len(k.m))
	for key, b := range k.m {
		out = append(out, KeyedStats{
			Key: key, Active: b.Active(), Queued: b.Queued(),
			Admitted: b.Admitted(), Shed: b.Shed(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}
