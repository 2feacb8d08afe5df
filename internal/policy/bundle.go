package policy

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
)

// Bundle is one versioned, checksummed policy revision as distributed
// by the fleet control plane. The generation is assigned by the fleet
// server's registry (monotonic per vehicle group); the checksum covers
// the policy source so a vehicle can verify a download end-to-end
// before handing it to the reload transaction.
type Bundle struct {
	Group      string // vehicle group the bundle is assigned to
	Generation uint64 // monotonic per group, assigned at publish time
	Checksum   string // hex SHA-256 of Source
	Source     string // SACK policy text

	// Invariants optionally carries a verify-grammar invariant set
	// versioned with the policy (see internal/verify): fleets publish the
	// safety properties alongside the rules they constrain, and the
	// registry re-proves them at every publish. Empty means none.
	Invariants string

	// Detached signature section (see internal/sign). The control plane
	// signs SignedPayload() — the canonical unsigned encoding, which
	// includes the generation, so a replayed older bundle fails
	// verification even with an intact signature. An unsigned bundle
	// (all three empty) encodes byte-identically to the pre-signature
	// wire format.
	KeyID     string // names the signing key in the consumer's keyring
	SigAlg    string // sign.AlgHMACSHA256 or sign.AlgEd25519
	Signature string // hex detached signature over SignedPayload()

	// Compiled is the enforcement-ready artifact for Source, populated by
	// the registry at publish time so in-process consumers (the fleet
	// agent's apply path) skip re-validating and re-compiling per vehicle.
	// It never crosses the wire: Encode omits it and DecodeBundle leaves
	// it nil — the HTTP path compiles locally once after checksum
	// verification. Consumers must treat it as immutable.
	Compiled *Compiled
}

// bundleMagic heads the wire encoding; the version suffix lets the
// format evolve without breaking deployed agents.
const bundleMagic = "SACK-BUNDLE/1"

// invariantsSeparator splits the policy source from the optional
// invariants section in the wire encoding. Bundles without invariants
// encode exactly as before this section existed.
const invariantsSeparator = "\n--- invariants ---\n"

// ChecksumSource fingerprints policy source for bundle integrity checks:
// the hex SHA-256 of the text. It feeds the text through a small buffer
// rather than converting it whole, so hashing a policy does not copy it.
func ChecksumSource(src string) string {
	h := sha256.New()
	var buf [512]byte
	for len(src) > 0 {
		n := copy(buf[:], src)
		h.Write(buf[:n])
		src = src[n:]
	}
	return hex.EncodeToString(h.Sum(buf[:0]))
}

// NewBundle builds a bundle for a policy revision, computing its
// checksum. It does not validate the policy text — the registry does
// that at publish time, and the vehicle again at apply time.
func NewBundle(group string, generation uint64, src string) Bundle {
	return Bundle{Group: group, Generation: generation, Checksum: ChecksumSource(src), Source: src}
}

// WithInvariants returns a copy of the bundle carrying an invariant
// set. The set rides inside the same wire envelope (its own section and
// checksum), so policy and safety properties version together.
func (b Bundle) WithInvariants(invariants string) Bundle {
	b.Invariants = invariants
	return b
}

// ETag is the HTTP-style entity tag of the bundle revision —
// generation plus a checksum prefix, so both a rollback (same
// generation, different content would be a registry bug) and a
// republish are visible as a tag change.
func (b Bundle) ETag() string {
	ck := b.Checksum
	if len(ck) > 12 {
		ck = ck[:12]
	}
	return fmt.Sprintf("g%d-%s", b.Generation, ck)
}

// Encode renders the bundle in its wire format: a fixed header
// (magic, group, generation, checksum), a separator line, and the raw
// policy source.
func (b Bundle) Encode() []byte {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", bundleMagic)
	fmt.Fprintf(&sb, "group: %s\n", b.Group)
	fmt.Fprintf(&sb, "generation: %d\n", b.Generation)
	fmt.Fprintf(&sb, "checksum: %s\n", b.Checksum)
	if b.Invariants != "" {
		fmt.Fprintf(&sb, "invariants-checksum: %s\n", ChecksumSource(b.Invariants))
	}
	if b.Signature != "" {
		fmt.Fprintf(&sb, "key-id: %s\n", b.KeyID)
		fmt.Fprintf(&sb, "sig-alg: %s\n", b.SigAlg)
		fmt.Fprintf(&sb, "signature: %s\n", b.Signature)
	}
	sb.WriteString("---\n")
	sb.WriteString(b.Source)
	if b.Invariants != "" {
		sb.WriteString(invariantsSeparator)
		sb.WriteString(b.Invariants)
	}
	return []byte(sb.String())
}

// DecodeBundle parses the wire format and verifies the checksum
// against the carried source, so transport corruption or a tampered
// body is caught before the policy ever reaches a vehicle's reload
// path.
func DecodeBundle(data []byte) (Bundle, error) {
	text := string(data)
	header, source, found := strings.Cut(text, "\n---\n")
	if !found {
		return Bundle{}, fmt.Errorf("policy: bundle missing header separator")
	}
	lines := strings.Split(header, "\n")
	if len(lines) == 0 || lines[0] != bundleMagic {
		return Bundle{}, fmt.Errorf("policy: not a %s bundle", bundleMagic)
	}
	b := Bundle{Source: source}
	var wantInvSum string
	if src, inv, ok := strings.Cut(b.Source, invariantsSeparator); ok {
		b.Source, b.Invariants = src, inv
	}
	for _, line := range lines[1:] {
		key, val, ok := strings.Cut(line, ":")
		if !ok {
			return Bundle{}, fmt.Errorf("policy: bad bundle header line %q", line)
		}
		val = strings.TrimSpace(val)
		switch key {
		case "group":
			b.Group = val
		case "generation":
			gen, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return Bundle{}, fmt.Errorf("policy: bad bundle generation %q", val)
			}
			b.Generation = gen
		case "checksum":
			b.Checksum = val
		case "invariants-checksum":
			wantInvSum = val
		case "key-id":
			b.KeyID = val
		case "sig-alg":
			b.SigAlg = val
		case "signature":
			if _, err := hex.DecodeString(val); err != nil {
				return Bundle{}, fmt.Errorf("policy: bad bundle signature encoding: %v", err)
			}
			b.Signature = val
		default:
			// Unknown headers are ignored for forward compatibility.
		}
	}
	if b.Checksum == "" {
		return Bundle{}, fmt.Errorf("policy: bundle missing checksum")
	}
	if got := ChecksumSource(b.Source); got != b.Checksum {
		return Bundle{}, fmt.Errorf("policy: bundle checksum mismatch: header %s, body %s", b.Checksum, got)
	}
	if wantInvSum != "" || b.Invariants != "" {
		if got := ChecksumSource(b.Invariants); got != wantInvSum {
			return Bundle{}, fmt.Errorf("policy: bundle invariants checksum mismatch: header %q, body %s", wantInvSum, got)
		}
	}
	return b, nil
}

// SignedPayload returns the canonical bytes a signature covers: the
// bundle's wire encoding with the signature section stripped. Signing
// the encoding (rather than just the source) binds group, generation,
// and invariants, so a signature cannot be transplanted onto a
// replayed generation or another group's bundle.
func (b Bundle) SignedPayload() []byte {
	b.KeyID, b.SigAlg, b.Signature = "", "", ""
	return b.Encode()
}

// SignatureBytes decodes the hex signature header (nil when unsigned).
func (b Bundle) SignatureBytes() []byte {
	if b.Signature == "" {
		return nil
	}
	sig, err := hex.DecodeString(b.Signature)
	if err != nil {
		return nil
	}
	return sig
}

// Signer is the subset of internal/sign.Signer the bundle layer needs;
// declared here so policy does not import sign.
type Signer interface {
	KeyID() string
	Algorithm() string
	Sign(payload []byte) []byte
}

// Signed returns a copy of the bundle carrying a detached signature
// from s over SignedPayload().
func (b Bundle) Signed(s Signer) Bundle {
	b.KeyID, b.SigAlg, b.Signature = "", "", ""
	sig := s.Sign(b.Encode())
	b.KeyID, b.SigAlg, b.Signature = s.KeyID(), s.Algorithm(), hex.EncodeToString(sig)
	return b
}

// JoinSourceInvariants packs policy source and an optional invariant
// set into one body using the bundle section separator — the form the
// fleetd publish endpoint accepts.
func JoinSourceInvariants(src, invariants string) string {
	if invariants == "" {
		return src
	}
	return src + invariantsSeparator + invariants
}

// SplitSourceInvariants is the inverse of JoinSourceInvariants.
func SplitSourceInvariants(body string) (src, invariants string) {
	src, invariants, _ = strings.Cut(body, invariantsSeparator)
	return src, invariants
}
