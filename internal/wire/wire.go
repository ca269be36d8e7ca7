// Package wire implements the flat, versioned binary format shared by
// every persistent artifact in the pipeline: phase-1 records and the
// other incremental build-dir records, object files, and executable
// images.
//
// A wire file is a fixed magic string, a kind tag with a per-kind format
// version, and a sequence of length-prefixed sections:
//
//	"ipra-wire/1\n"
//	kind    uvarint-length string  ("module", "cache-entry", "object", ...)
//	version uvarint                (per-kind body format version)
//	section*                       (id uvarint, length uvarint, payload)
//
// Section 1 is the string table (every distinct string once, deduplicated;
// the body refers to strings by table index), section 2 is the body.
// Decoders skip sections with ids they do not recognize, so new optional
// sections can be added without a version bump; any change to the body
// layout of a kind must bump that kind's version, and decoders reject
// versions they were not built for.
//
// Scalars are uvarint/varint encoded; floats and bitset words are
// little-endian 64-bit values, bitsets written as their raw []uint64
// backing. Every collection length is bounds-checked against the bytes
// remaining before allocation, so a truncated or corrupt input produces an
// error — never a panic, never an attempt at a giant allocation. The
// encoding contains no maps and no iteration-order dependence: the same
// value always encodes to the same bytes, in any process, which is what
// lets the build system compare artifacts with a plain byte diff.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// magic identifies a wire file; the trailing framing version covers the
// header and section layout itself (the per-kind version covers bodies).
const magic = "ipra-wire/1\n"

// Section identifiers.
const (
	secStrings = 1
	secBody    = 2
)

// Encoder builds one wire file. Methods append to the body; Finish
// assembles the header, string table, and body into the final bytes.
type Encoder struct {
	kind    string
	version uint64
	body    []byte
	idx     map[string]uint64
	tab     []string
}

// NewEncoder starts a wire file of the given kind and body version.
func NewEncoder(kind string, version uint64) *Encoder {
	return &Encoder{kind: kind, version: version, idx: make(map[string]uint64)}
}

// U appends an unsigned varint.
func (e *Encoder) U(v uint64) { e.body = binary.AppendUvarint(e.body, v) }

// I appends a signed (zigzag) varint.
func (e *Encoder) I(v int64) { e.body = binary.AppendVarint(e.body, v) }

// Bool appends a single 0/1 byte.
func (e *Encoder) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	e.body = append(e.body, b)
}

// Byte appends one raw byte.
func (e *Encoder) Byte(v byte) { e.body = append(e.body, v) }

// F64 appends a float64 as its little-endian IEEE-754 bits.
func (e *Encoder) F64(v float64) {
	e.body = binary.LittleEndian.AppendUint64(e.body, math.Float64bits(v))
}

// Str appends a reference to s in the deduplicated string table.
func (e *Encoder) Str(s string) {
	i, ok := e.idx[s]
	if !ok {
		i = uint64(len(e.tab))
		e.idx[s] = i
		e.tab = append(e.tab, s)
	}
	e.U(i)
}

// Bytes appends a length-prefixed byte slice.
func (e *Encoder) Bytes(b []byte) {
	e.U(uint64(len(b)))
	e.body = append(e.body, b...)
}

// Words appends a length-prefixed []uint64 as raw little-endian words —
// the direct image of a bitset's backing array.
func (e *Encoder) Words(ws []uint64) {
	e.U(uint64(len(ws)))
	for _, w := range ws {
		e.body = binary.LittleEndian.AppendUint64(e.body, w)
	}
}

// Strs appends a length-prefixed list of string-table references.
func (e *Encoder) Strs(ss []string) {
	e.U(uint64(len(ss)))
	for _, s := range ss {
		e.Str(s)
	}
}

// Ints appends a length-prefixed list of non-negative ints as uvarints.
func (e *Encoder) Ints(vs []int) {
	e.U(uint64(len(vs)))
	for _, v := range vs {
		e.U(uint64(v))
	}
}

// Finish assembles and returns the complete wire file.
func (e *Encoder) Finish() []byte {
	var strs []byte
	strs = binary.AppendUvarint(strs, uint64(len(e.tab)))
	for _, s := range e.tab {
		strs = binary.AppendUvarint(strs, uint64(len(s)))
		strs = append(strs, s...)
	}
	out := make([]byte, 0, len(magic)+2*binary.MaxVarintLen64+len(e.kind)+len(strs)+len(e.body)+16)
	out = append(out, magic...)
	out = binary.AppendUvarint(out, uint64(len(e.kind)))
	out = append(out, e.kind...)
	out = binary.AppendUvarint(out, e.version)
	out = binary.AppendUvarint(out, secStrings)
	out = binary.AppendUvarint(out, uint64(len(strs)))
	out = append(out, strs...)
	out = binary.AppendUvarint(out, secBody)
	out = binary.AppendUvarint(out, uint64(len(e.body)))
	out = append(out, e.body...)
	return out
}

// Decoder reads one wire file. Decoding errors are sticky: after the
// first, every method returns zero values, and Finish reports the error.
type Decoder struct {
	kind string
	body []byte
	tab  []string
	err  error
}

// NewDecoder parses the header and sections of data, verifying the magic,
// kind, and version. The returned decoder is positioned at the body.
func NewDecoder(data []byte, kind string, version uint64) (*Decoder, error) {
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("wire: not a wire file (want %s kind %q)", magic[:len(magic)-1], kind)
	}
	rest := data[len(magic):]
	gotKind, rest, ok := cutString(rest)
	if !ok {
		return nil, fmt.Errorf("wire: truncated header (kind %q)", kind)
	}
	if gotKind != kind {
		return nil, fmt.Errorf("wire: kind mismatch (got %q, want %q)", gotKind, kind)
	}
	gotVersion, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, fmt.Errorf("wire: truncated header (kind %q)", kind)
	}
	rest = rest[n:]
	if gotVersion != version {
		return nil, fmt.Errorf("wire: %s version mismatch (got v%d, want v%d)", kind, gotVersion, version)
	}

	d := &Decoder{kind: kind}
	var strs []byte
	haveStrs, haveBody := false, false
	for len(rest) > 0 {
		id, n := binary.Uvarint(rest)
		if n <= 0 {
			return nil, d.corrupt("truncated section header")
		}
		rest = rest[n:]
		size, n := binary.Uvarint(rest)
		if n <= 0 || size > uint64(len(rest)-n) {
			return nil, d.corrupt("section length exceeds file")
		}
		payload := rest[n : n+int(size)]
		rest = rest[n+int(size):]
		switch id {
		case secStrings:
			if haveStrs {
				return nil, d.corrupt("duplicate string table")
			}
			haveStrs, strs = true, payload
		case secBody:
			if haveBody {
				return nil, d.corrupt("duplicate body")
			}
			haveBody, d.body = true, payload
		default:
			// Unknown section: skip. Future encoders may add optional
			// sections without breaking older readers.
		}
	}
	if !haveStrs || !haveBody {
		return nil, d.corrupt("missing string table or body")
	}

	count, n := binary.Uvarint(strs)
	if n <= 0 || count > uint64(len(strs)) {
		return nil, d.corrupt("corrupt string table")
	}
	strs = strs[n:]
	d.tab = make([]string, count)
	for i := range d.tab {
		s, rest, ok := cutString(strs)
		if !ok {
			return nil, d.corrupt("corrupt string table")
		}
		d.tab[i], strs = s, rest
	}
	return d, nil
}

// cutString reads one uvarint-length-prefixed string.
func cutString(b []byte) (string, []byte, bool) {
	n, k := binary.Uvarint(b)
	if k <= 0 || n > uint64(len(b)-k) {
		return "", nil, false
	}
	return string(b[k : k+int(n)]), b[k+int(n):], true
}

func (d *Decoder) corrupt(msg string) error {
	return fmt.Errorf("wire: %s: %s", d.kind, msg)
}

func (d *Decoder) fail() {
	if d.err == nil {
		d.err = d.corrupt("truncated or corrupt body")
	}
	d.body = nil
}

// U reads an unsigned varint.
func (d *Decoder) U() uint64 {
	v, n := binary.Uvarint(d.body)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.body = d.body[n:]
	return v
}

// I reads a signed varint.
func (d *Decoder) I() int64 {
	v, n := binary.Varint(d.body)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.body = d.body[n:]
	return v
}

// Bool reads one 0/1 byte.
func (d *Decoder) Bool() bool {
	if len(d.body) < 1 {
		d.fail()
		return false
	}
	v := d.body[0]
	d.body = d.body[1:]
	return v != 0
}

// Byte reads one raw byte.
func (d *Decoder) Byte() byte {
	if len(d.body) < 1 {
		d.fail()
		return 0
	}
	v := d.body[0]
	d.body = d.body[1:]
	return v
}

// F64 reads a little-endian float64.
func (d *Decoder) F64() float64 {
	if len(d.body) < 8 {
		d.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.body))
	d.body = d.body[8:]
	return v
}

// Str reads a string-table reference.
func (d *Decoder) Str() string {
	i := d.U()
	if i >= uint64(len(d.tab)) {
		d.fail()
		return ""
	}
	return d.tab[i]
}

// Count reads a collection length and bounds it against the remaining
// body: a serialized element occupies at least elemSize bytes (pass 1 for
// varint-encoded elements), so a longer count is corruption — fail instead
// of attempting the allocation.
func (d *Decoder) Count(elemSize int) int {
	if elemSize < 1 {
		elemSize = 1
	}
	n := d.U()
	if n > uint64(len(d.body)/elemSize) {
		d.fail()
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed byte slice. The result is a private copy.
func (d *Decoder) Bytes() []byte {
	n := d.Count(1)
	if d.err != nil {
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]byte, n)
	copy(out, d.body)
	d.body = d.body[n:]
	return out
}

// Words reads a length-prefixed []uint64 written by Encoder.Words.
func (d *Decoder) Words() []uint64 {
	n := d.Count(8)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(d.body)
		d.body = d.body[8:]
	}
	return out
}

// WordsInto reads a length-prefixed word list into dst, which must have
// exactly the encoded length; a mismatch is a decode error.
func (d *Decoder) WordsInto(dst []uint64) {
	n := d.Count(8)
	if d.err != nil {
		return
	}
	if n != len(dst) {
		d.fail()
		return
	}
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint64(d.body)
		d.body = d.body[8:]
	}
}

// Strs reads a length-prefixed list of string-table references.
func (d *Decoder) Strs() []string {
	n := d.Count(1)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.Str()
	}
	return out
}

// Ints reads a length-prefixed list of non-negative ints.
func (d *Decoder) Ints() []int {
	n := d.Count(1)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(d.U())
	}
	return out
}

// Err returns the sticky decode error, if any.
func (d *Decoder) Err() error { return d.err }

// Finish reports the sticky error, or an error if body bytes remain
// unconsumed (a sign the caller's decode walked out of step).
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if len(d.body) != 0 {
		return d.corrupt(fmt.Sprintf("%d trailing bytes after body", len(d.body)))
	}
	return nil
}
