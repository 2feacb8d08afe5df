// Package wire is the fleet data plane's binary codec: a
// length-prefixed, varint + dictionary-encoded batch format for
// decision-log records, built for the two hottest byte streams in the
// control plane — the agent → fleetd log upload and the server's WAL
// ingest frames.
//
// As reflective JSON a LogRecord costs seven string fields, ~120 bytes
// and several allocations per record on both sides. The binary frame
// instead carries one per-batch string table
// (every distinct Module/Op/Subject/Object/Action/Detail value appears
// once) and per-record varint references into it, with Seq and the
// timestamp delta-encoded against the previous record — a typical
// fleet batch, whose records repeat a handful of strings and count
// sequences upward by one, costs ~9 bytes per record before optional
// flate compression.
//
// The decoder is built to be pooled: it reuses its record slice, its
// string table, and an intern cache across batches, so once a vehicle's
// vocabulary has been seen the steady-state decode path performs no
// per-record allocations (GetDecoder/PutDecoder; the alloc guard in
// the test suite holds it to that). Frames are self-describing
// (magic + version + flags), so a reader can tell them from JSON
// payloads by the first byte.
package wire

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"time"
)

// Content types on the fleetd HTTP surface. The log upload accepts only
// ContentTypeLogs and answers any other content type with 415.
const (
	// ContentTypeLogs marks a binary decision-log batch frame.
	ContentTypeLogs = "application/x-sack-logs"
	// ContentTypeDelta marks a policy.BundleDelta body on the bundle
	// download path.
	ContentTypeDelta = "application/x-sack-delta"
)

// Frame layout:
//
//	[0] magic 'S'   [1] magic 'L'   [2] version   [3] flags
//	flags bit0 set: body is DEFLATE-compressed, preceded by a uvarint
//	of the uncompressed body length (decoder pre-sizing).
//	body:
//	  uvarint nStrings, then nStrings × (uvarint len, bytes)
//	  uvarint nRecords, then per record:
//	    zigzag varint ΔSeq   (Seq - previous record's Seq; first vs 0)
//	    zigzag varint ΔSec   (unix seconds vs previous record)
//	    uvarint nanoseconds  (0..999999999)
//	    uvarint table index × 6 (Module, Op, Subject, Object, Action, Detail)
const (
	magic0       = 'S'
	magic1       = 'L'
	frameVersion = 1

	flagCompressed = 1 << 0
)

// CompressThreshold is the uncompressed body size above which Encode
// applies flate when compression is requested; smaller frames are not
// worth the CPU or the deflate framing overhead.
const CompressThreshold = 512

// maxInternEntries bounds the decoder's cross-batch intern cache so a
// hostile stream of unique strings cannot grow it without limit.
const maxInternEntries = 8192

// Record is the field set the codec carries — structurally identical to
// fleet.LogRecord (declared here to keep the dependency arrow pointing
// from fleet to wire). The fleet package converts by direct field copy.
type Record struct {
	Seq     uint64
	When    time.Time
	Module  string
	Op      string
	Subject string
	Object  string
	Action  string
	Detail  string
}

// Encoder builds batch frames into a reusable buffer. Not safe for
// concurrent use; pool with GetEncoder/PutEncoder.
type Encoder struct {
	buf  []byte
	dict map[string]uint64
	tbl  []string
	idx  []uint64 // per-record table indices, 6 per record
	// flate scratch, lazily built on the first compressed frame.
	fw   *flate.Writer
	cbuf bytes.Buffer
}

// IsFrame reports whether data begins with a batch frame header — the
// check that tells a frame from a JSON payload (which starts with '{'
// or '[').
func IsFrame(data []byte) bool {
	return len(data) >= 4 && data[0] == magic0 && data[1] == magic1
}

// Encode appends one batch frame for recs to dst and returns the
// extended slice. With compress true the body is DEFLATE-compressed
// when it exceeds CompressThreshold. Pass dst = e.buf[:0] (via Reset
// semantics) or any caller buffer; the encoder's dictionary scratch is
// reused either way.
func (e *Encoder) Encode(dst []byte, recs []Record, compress bool) []byte {
	if e.dict == nil {
		e.dict = make(map[string]uint64, 16)
	} else {
		clear(e.dict)
	}
	// Build the string table: first-appearance order, every distinct
	// value once. The reserve pass records every field's table index in
	// idx so the emit pass never touches the dictionary again, and a
	// per-field one-entry memo short-circuits the map entirely for runs
	// of repeated values — the overwhelmingly common shape of a fleet
	// batch, where consecutive records name the same module, op, and
	// subject.
	e.buf = e.buf[:0]
	body := e.buf
	e.tbl = e.tbl[:0]
	e.idx = e.idx[:0]
	var lastS [6]string
	var lastI [6]uint64
	first := true
	for i := range recs {
		r := &recs[i]
		for f, s := range [6]string{r.Module, r.Op, r.Subject, r.Object, r.Action, r.Detail} {
			if !first && s == lastS[f] {
				e.idx = append(e.idx, lastI[f])
				continue
			}
			id, ok := e.dict[s]
			if !ok {
				id = uint64(len(e.tbl))
				e.dict[s] = id
				e.tbl = append(e.tbl, s)
			}
			lastS[f], lastI[f] = s, id
			e.idx = append(e.idx, id)
		}
		first = false
	}
	body = binary.AppendUvarint(body, uint64(len(e.tbl)))
	for _, s := range e.tbl {
		body = binary.AppendUvarint(body, uint64(len(s)))
		body = append(body, s...)
	}
	body = binary.AppendUvarint(body, uint64(len(recs)))
	var prevSeq uint64
	var prevSec int64
	for i := range recs {
		r := &recs[i]
		body = appendZigzag(body, int64(r.Seq-prevSeq))
		prevSeq = r.Seq
		sec := r.When.Unix()
		body = appendZigzag(body, sec-prevSec)
		prevSec = sec
		body = binary.AppendUvarint(body, uint64(r.When.Nanosecond()))
		for _, id := range e.idx[i*6 : i*6+6] {
			body = binary.AppendUvarint(body, id)
		}
	}
	e.buf = body // keep the grown buffer for the next Encode

	hdr := [4]byte{magic0, magic1, frameVersion, 0}
	if compress && len(body) > CompressThreshold {
		e.cbuf.Reset()
		if e.fw == nil {
			e.fw, _ = flate.NewWriter(&e.cbuf, flate.BestSpeed)
		} else {
			e.fw.Reset(&e.cbuf)
		}
		e.fw.Write(body)
		if err := e.fw.Close(); err == nil && e.cbuf.Len() < len(body) {
			hdr[3] |= flagCompressed
			dst = append(dst, hdr[:]...)
			dst = binary.AppendUvarint(dst, uint64(len(body)))
			return append(dst, e.cbuf.Bytes()...)
		}
	}
	dst = append(dst, hdr[:]...)
	return append(dst, body...)
}

// RawSize reports the uncompressed frame size of the most recent
// Encode (header + body before flate) — the "raw bytes" side of wire
// compression accounting.
func (e *Encoder) RawSize() int { return 4 + len(e.buf) }

func appendZigzag(b []byte, v int64) []byte {
	return binary.AppendUvarint(b, uint64(v<<1)^uint64(v>>63))
}

// Decoder parses batch frames into a reusable record slice with
// interned strings. Not safe for concurrent use; pool with
// GetDecoder/PutDecoder. The slice returned by Decode is valid until
// the next Decode call — callers copy what they keep (the strings
// inside are immutable and safe to retain).
type Decoder struct {
	recs   []Record
	table  []string
	intern map[string]string
	ubuf   []byte // decompression buffer
	br     bytes.Reader
	fr     io.ReadCloser // flate reader, reused via flate.Resetter
}

// Decode parses one batch frame. The returned slice (and its backing
// array) is reused by the next Decode.
func (d *Decoder) Decode(frame []byte) ([]Record, error) {
	if !IsFrame(frame) {
		return nil, fmt.Errorf("wire: not a log batch frame")
	}
	if frame[2] != frameVersion {
		return nil, fmt.Errorf("wire: unsupported frame version %d", frame[2])
	}
	body := frame[4:]
	if frame[3]&flagCompressed != 0 {
		rawLen, n := binary.Uvarint(body)
		if n <= 0 || rawLen > maxBodyBytes {
			return nil, fmt.Errorf("wire: bad compressed frame length")
		}
		d.br.Reset(body[n:])
		if d.fr == nil {
			d.fr = flate.NewReader(&d.br)
		} else if err := d.fr.(flate.Resetter).Reset(&d.br, nil); err != nil {
			return nil, fmt.Errorf("wire: flate reset: %w", err)
		}
		if cap(d.ubuf) < int(rawLen) {
			d.ubuf = make([]byte, rawLen)
		}
		d.ubuf = d.ubuf[:rawLen]
		if _, err := io.ReadFull(d.fr, d.ubuf); err != nil {
			return nil, fmt.Errorf("wire: inflate: %w", err)
		}
		body = d.ubuf
	}

	nStrings, n := binary.Uvarint(body)
	if n <= 0 || nStrings > uint64(len(body)) {
		return nil, fmt.Errorf("wire: bad string table size")
	}
	body = body[n:]
	if d.intern == nil {
		d.intern = make(map[string]string, 32)
	} else if len(d.intern) > maxInternEntries {
		clear(d.intern)
	}
	d.table = d.table[:0]
	for i := uint64(0); i < nStrings; i++ {
		slen, n := binary.Uvarint(body)
		if n <= 0 || slen > uint64(len(body)-n) {
			return nil, fmt.Errorf("wire: truncated string table")
		}
		raw := body[n : n+int(slen)]
		body = body[n+int(slen):]
		// Map lookup with string(raw) does not allocate; only a
		// first-seen string pays for its conversion.
		s, ok := d.intern[string(raw)]
		if !ok {
			s = string(raw)
			d.intern[s] = s
		}
		d.table = append(d.table, s)
	}

	// A record costs at least 9 body bytes (three varints + six table
	// references), so any larger claimed count is hostile — reject it
	// before sizing the record slice.
	nRecords, n := binary.Uvarint(body)
	if n <= 0 || nRecords > uint64(len(body)/9)+1 {
		return nil, fmt.Errorf("wire: bad record count")
	}
	body = body[n:]
	if cap(d.recs) < int(nRecords) {
		d.recs = make([]Record, nRecords)
	}
	d.recs = d.recs[:nRecords]
	var prevSeq uint64
	var prevSec int64
	for i := uint64(0); i < nRecords; i++ {
		r := &d.recs[i]
		dSeq, n1 := uvarintZigzag(body)
		if n1 <= 0 {
			return nil, fmt.Errorf("wire: truncated record %d", i)
		}
		body = body[n1:]
		prevSeq += uint64(dSeq)
		r.Seq = prevSeq
		dSec, n2 := uvarintZigzag(body)
		if n2 <= 0 {
			return nil, fmt.Errorf("wire: truncated record %d", i)
		}
		body = body[n2:]
		prevSec += dSec
		nsec, n3 := binary.Uvarint(body)
		if n3 <= 0 || nsec > 999999999 {
			return nil, fmt.Errorf("wire: bad timestamp in record %d", i)
		}
		body = body[n3:]
		r.When = time.Unix(prevSec, int64(nsec)).UTC()
		for _, field := range [6]*string{&r.Module, &r.Op, &r.Subject, &r.Object, &r.Action, &r.Detail} {
			idx, nf := binary.Uvarint(body)
			if nf <= 0 || idx >= uint64(len(d.table)) {
				return nil, fmt.Errorf("wire: bad string reference in record %d", i)
			}
			body = body[nf:]
			*field = d.table[idx]
		}
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after batch", len(body))
	}
	return d.recs, nil
}

func uvarintZigzag(b []byte) (int64, int) {
	u, n := binary.Uvarint(b)
	return int64(u>>1) ^ -int64(u&1), n
}

// maxBodyBytes caps a frame's claimed uncompressed size — well above
// any legitimate batch, well below a zip-bomb allocation.
const maxBodyBytes = 64 << 20

var encPool = sync.Pool{New: func() any { return new(Encoder) }}
var decPool = sync.Pool{New: func() any { return new(Decoder) }}

// GetEncoder borrows a pooled encoder; return it with PutEncoder once
// the frame bytes are no longer referenced.
func GetEncoder() *Encoder { return encPool.Get().(*Encoder) }

// PutEncoder returns an encoder to the pool.
func PutEncoder(e *Encoder) { encPool.Put(e) }

// GetDecoder borrows a pooled decoder; return it with PutDecoder once
// the decoded records have been copied out.
func GetDecoder() *Decoder { return decPool.Get().(*Decoder) }

// PutDecoder returns a decoder to the pool. Its intern cache rides
// along, which is the point: the next batch from the same fleet decodes
// against an already warm vocabulary.
func PutDecoder(d *Decoder) { decPool.Put(d) }

// EncodeBatch is the convenience one-shot form: a freshly allocated
// frame for recs. Hot paths should pool an Encoder instead.
func EncodeBatch(recs []Record, compress bool) []byte {
	e := GetEncoder()
	out := e.Encode(nil, recs, compress)
	PutEncoder(e)
	return out
}

// DecodeBatch is the convenience one-shot form: a freshly allocated
// record slice. Hot paths should pool a Decoder instead.
func DecodeBatch(frame []byte) ([]Record, error) {
	d := GetDecoder()
	recs, err := d.Decode(frame)
	if err != nil {
		PutDecoder(d)
		return nil, err
	}
	out := make([]Record, len(recs))
	copy(out, recs)
	PutDecoder(d)
	return out, nil
}
