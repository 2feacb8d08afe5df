package wire

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// benchBatch is the canonical fleet batch shape: 64 records from one
// vehicle, a handful of distinct strings, sequence counting up by one —
// what the scale harness and a real audit-ring export both produce.
func benchBatch(n int) []Record {
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			Seq:     uint64(i + 1),
			When:    base.Add(time.Duration(i) * 3 * time.Millisecond),
			Module:  "sack",
			Op:      "file_open",
			Subject: "/usr/bin/ivi",
			Object:  "/dev/vehicle/speed",
			Action:  "ALLOWED",
		}
	}
	recs[n/2].Action = "DENIED"
	recs[n/2].Detail = "state driving: no rule"
	return recs
}

func randRecord(rng *rand.Rand) Record {
	pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
	var when time.Time
	switch rng.Intn(4) {
	case 0: // zero time, the benchmark-record shape
	case 1:
		when = time.Unix(rng.Int63n(4e9)-2e9, rng.Int63n(1e9))
	default:
		when = time.Unix(1754650000+rng.Int63n(1000), rng.Int63n(1e9))
	}
	return Record{
		Seq:     rng.Uint64() >> uint(rng.Intn(40)),
		When:    when,
		Module:  pick([]string{"", "sack", "apparmor"}),
		Op:      pick([]string{"read", "write", "ioctl", "file_open", ""}),
		Subject: pick([]string{"", "/usr/bin/ivi", "/usr/bin/otad", "comm-αβ", "x"}),
		Object:  fmt.Sprintf("/dev/vehicle/%d", rng.Intn(8)),
		Action:  pick([]string{"ALLOWED", "DENIED"}),
		// Valid UTF-8 only: encoding/json replaces invalid bytes with
		// U+FFFD, so a differential test can't feed it raw binary.
		Detail: pick([]string{"", "state driving", "rule allow read /dev/**", "detail αβγ\t\"quoted\""}),
	}
}

func recordsEqual(a, b Record) bool {
	return a.Seq == b.Seq && a.When.Equal(b.When) &&
		a.Module == b.Module && a.Op == b.Op && a.Subject == b.Subject &&
		a.Object == b.Object && a.Action == b.Action && a.Detail == b.Detail
}

func TestRoundTripCanonical(t *testing.T) {
	for _, compress := range []bool{false, true} {
		recs := benchBatch(64)
		frame := EncodeBatch(recs, compress)
		if !IsFrame(frame) {
			t.Fatalf("compress=%v: frame not recognised", compress)
		}
		got, err := DecodeBatch(frame)
		if err != nil {
			t.Fatalf("compress=%v: decode: %v", compress, err)
		}
		if len(got) != len(recs) {
			t.Fatalf("compress=%v: %d records, want %d", compress, len(got), len(recs))
		}
		for i := range recs {
			if !recordsEqual(recs[i], got[i]) {
				t.Fatalf("compress=%v: record %d: got %+v want %+v", compress, i, got[i], recs[i])
			}
		}
	}
}

func TestRoundTripEmptyBatch(t *testing.T) {
	got, err := DecodeBatch(EncodeBatch(nil, true))
	if err != nil || len(got) != 0 {
		t.Fatalf("empty batch: got %d records, err %v", len(got), err)
	}
}

// TestDifferentialJSON is the codec half of the differential fuzz
// satellite: random batches must carry identical field values through
// the binary frame and through encoding/json. Both paths lose the
// monotonic clock reading and the wall-clock location, nothing else.
func TestDifferentialJSON(t *testing.T) {
	type jsonRecord struct { // mirrors fleet.LogRecord's JSON shape
		Seq     uint64    `json:"seq"`
		When    time.Time `json:"when"`
		Module  string    `json:"module"`
		Op      string    `json:"op"`
		Subject string    `json:"subject,omitempty"`
		Object  string    `json:"object,omitempty"`
		Action  string    `json:"action"`
		Detail  string    `json:"detail,omitempty"`
	}
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		recs := make([]Record, rng.Intn(200))
		for i := range recs {
			recs[i] = randRecord(rng)
		}

		binGot, err := DecodeBatch(EncodeBatch(recs, seed%2 == 0))
		if err != nil {
			t.Fatalf("seed %d: binary decode: %v", seed, err)
		}

		js := make([]jsonRecord, len(recs))
		for i, r := range recs {
			js[i] = jsonRecord{r.Seq, r.When, r.Module, r.Op, r.Subject, r.Object, r.Action, r.Detail}
		}
		buf, err := json.Marshal(js)
		if err != nil {
			t.Fatalf("seed %d: json marshal: %v", seed, err)
		}
		var jsGot []jsonRecord
		if err := json.Unmarshal(buf, &jsGot); err != nil {
			t.Fatalf("seed %d: json unmarshal: %v", seed, err)
		}

		if len(binGot) != len(recs) || len(jsGot) != len(recs) {
			t.Fatalf("seed %d: lengths binary=%d json=%d want %d", seed, len(binGot), len(jsGot), len(recs))
		}
		for i := range recs {
			j := Record{jsGot[i].Seq, jsGot[i].When, jsGot[i].Module, jsGot[i].Op,
				jsGot[i].Subject, jsGot[i].Object, jsGot[i].Action, jsGot[i].Detail}
			if !recordsEqual(binGot[i], j) {
				t.Fatalf("seed %d record %d: binary %+v != json %+v", seed, i, binGot[i], j)
			}
			if !recordsEqual(binGot[i], recs[i]) {
				t.Fatalf("seed %d record %d: binary %+v != original %+v", seed, i, binGot[i], recs[i])
			}
		}
	}
}

// TestDecoderReuseAcrossBatches drives one pooled decoder through many
// distinct batches: reuse must never leak one batch's values into the
// next.
func TestDecoderReuseAcrossBatches(t *testing.T) {
	d := GetDecoder()
	defer PutDecoder(d)
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 100; round++ {
		recs := make([]Record, rng.Intn(50))
		for i := range recs {
			recs[i] = randRecord(rng)
		}
		got, err := d.Decode(EncodeBatch(recs, round%3 == 0))
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i := range recs {
			if !recordsEqual(recs[i], got[i]) {
				t.Fatalf("round %d record %d: got %+v want %+v", round, i, got[i], recs[i])
			}
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("{}"),
		[]byte("[]"),
		[]byte{magic0, magic1, 99, 0}, // bad version
		[]byte{magic0, magic1, frameVersion, 0, 255}, // truncated table
		append(EncodeBatch(benchBatch(4), false), 0), // trailing bytes
	}
	// Bit-flip sweep over a real frame: every corruption must fail or
	// decode cleanly, never panic.
	frame := EncodeBatch(benchBatch(16), false)
	for i := range frame {
		mut := append([]byte(nil), frame...)
		mut[i] ^= 0x40
		cases = append(cases, mut)
	}
	for i, c := range cases {
		d := GetDecoder()
		d.Decode(c) // must not panic; error or not both fine for mutations
		PutDecoder(d)
		if i < 6 && i > 0 { // the hand-built malformed cases must error
			if _, err := DecodeBatch(c); err == nil && i != 0 {
				t.Fatalf("case %d: malformed frame decoded without error", i)
			}
		}
	}
}

// TestBytesPerRecordGuard is the wire-efficiency gate run by
// `make bench-smoke`: the binary frame must stay ≥5× smaller than the
// JSON encoding of the same canonical batch, compressed or not.
func TestBytesPerRecordGuard(t *testing.T) {
	recs := benchBatch(64)
	js := make([]map[string]any, 0, len(recs))
	for _, r := range recs {
		m := map[string]any{"seq": r.Seq, "when": r.When, "module": r.Module,
			"op": r.Op, "action": r.Action}
		if r.Subject != "" {
			m["subject"] = r.Subject
		}
		if r.Object != "" {
			m["object"] = r.Object
		}
		if r.Detail != "" {
			m["detail"] = r.Detail
		}
		js = append(js, m)
	}
	jsonBytes, err := json.Marshal(js)
	if err != nil {
		t.Fatal(err)
	}
	for _, compress := range []bool{false, true} {
		frame := EncodeBatch(recs, compress)
		jsonPer := float64(len(jsonBytes)) / float64(len(recs))
		binPer := float64(len(frame)) / float64(len(recs))
		t.Logf("compress=%v: json %.1f B/record, binary %.1f B/record (%.1fx)",
			compress, jsonPer, binPer, jsonPer/binPer)
		if binPer*5 > jsonPer {
			t.Fatalf("compress=%v: binary %.1f B/record, json %.1f B/record — below the 5x floor",
				compress, binPer, jsonPer)
		}
	}
}

// TestDecodeAllocGuard is the zero-alloc gate run by `make bench-smoke`:
// once the decoder has seen the batch vocabulary, steady-state decodes
// of a 64-record frame must average out to ~0 allocations per record.
func TestDecodeAllocGuard(t *testing.T) {
	recs := benchBatch(64)
	frame := EncodeBatch(recs, false)
	d := GetDecoder()
	defer PutDecoder(d)
	if _, err := d.Decode(frame); err != nil { // warm the intern cache
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := d.Decode(frame); err != nil {
			t.Fatal(err)
		}
	})
	perRecord := allocs / float64(len(recs))
	t.Logf("steady-state: %.2f allocs/decode, %.4f allocs/record", allocs, perRecord)
	if allocs > 1 {
		t.Fatalf("steady-state decode allocates %.2f times per 64-record batch; want ≤1 amortized", allocs)
	}
}

func BenchmarkEncodeBatch(b *testing.B) {
	recs := benchBatch(64)
	e := GetEncoder()
	defer PutEncoder(e)
	var out []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out = e.Encode(out[:0], recs, false)
	}
	b.ReportMetric(float64(len(out))/64, "bytes/record")
}

func BenchmarkDecodeBatch(b *testing.B) {
	frame := EncodeBatch(benchBatch(64), false)
	d := GetDecoder()
	defer PutDecoder(d)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := d.Decode(frame); err != nil {
			b.Fatal(err)
		}
	}
}
