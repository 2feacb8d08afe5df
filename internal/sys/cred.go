package sys

import (
	"fmt"
	"sync/atomic"
)

// maxBlobSlots bounds how many security modules can keep a label on a
// credential — the simulated lsm_blob_sizes.lbs_cred. Every module that
// labels tasks takes one slot; the array stays small enough that a
// copy-on-write of all of them costs less than a map.
const maxBlobSlots = 8

// BlobSlot indexes one module's security blob on every Cred. A module
// takes its slot once, when its package registers (the equivalent of a
// DEFINE_LSM blob-size declaration), and reads its label with one atomic
// load and an index — no name lookup on the hook fast path.
type BlobSlot uint8

var blobSlots atomic.Uint32

// NewBlobSlot assigns the next free slot. Modules call it from a
// package-level variable initialiser; it panics when all maxBlobSlots
// are taken, which only a build with too many labelling modules hits.
func NewBlobSlot() BlobSlot {
	n := blobSlots.Add(1)
	if n > maxBlobSlots {
		panic(fmt.Sprintf("sys: more than %d security blob slots", maxBlobSlots))
	}
	return BlobSlot(n - 1)
}

// blobs is one immutable set of security labels, one per slot.
type blobs [maxBlobSlots]string

// Cred is a task credential: user/group identity, capability set, and the
// per-LSM security blobs (the simulated equivalent of cred->security).
// A Cred is owned by exactly one task; Fork copies it.
//
// Blob reads are on the permission-check fast path (SACK resolves its
// subject label from the blob on every hook), so the blob array is
// published copy-on-write through an atomic pointer: readers do one
// atomic load and an index, never taking a lock. SetBlob is rare (exec
// relabelling) and swaps in a fresh copy with compare-and-swap.
type Cred struct {
	UID  int
	GID  int
	Caps CapSet

	blobs atomic.Pointer[blobs] // immutable; replaced whole on write; nil = no labels
}

// NewCred builds a credential for the given identity. UID 0 receives the
// full capability set, matching Linux defaults.
func NewCred(uid, gid int) *Cred {
	c := &Cred{UID: uid, GID: gid}
	if uid == 0 {
		c.Caps = FullCapSet()
	}
	return c
}

// Clone returns a copy, used by fork. The blob array is immutable, so
// the child shares its parent's until either side relabels; LSMs that
// need copy-on-fork semantics implement the TaskAlloc hook and replace
// their blob on the child.
func (c *Cred) Clone() *Cred {
	n := &Cred{UID: c.UID, GID: c.GID, Caps: c.Caps}
	n.blobs.Store(c.blobs.Load())
	return n
}

// Blob returns the label stored in the module's slot, or "".
// Lock-free: one atomic load of the current immutable array.
func (c *Cred) Blob(slot BlobSlot) string {
	if b := c.blobs.Load(); b != nil {
		return b[slot]
	}
	return ""
}

// SetBlob stores the label in the module's slot by publishing a new
// array; concurrent Blob readers keep the version they loaded.
func (c *Cred) SetBlob(slot BlobSlot, label string) {
	for {
		cur := c.blobs.Load()
		var next blobs
		if cur != nil {
			next = *cur
		}
		next[slot] = label
		if c.blobs.CompareAndSwap(cur, &next) {
			return
		}
	}
}

// HasCap reports whether the credential holds the capability.
func (c *Cred) HasCap(cap Cap) bool { return c.Caps.Has(cap) }

// String summarises the identity for audit messages.
func (c *Cred) String() string {
	return fmt.Sprintf("uid=%d gid=%d", c.UID, c.GID)
}
