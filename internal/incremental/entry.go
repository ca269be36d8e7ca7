// The phase-1 record: one module's IR plus its summary, keyed by a content
// hash of the module's source.

package incremental

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"ipra/internal/ir"
	"ipra/internal/summary"
	"ipra/internal/wire"
)

// sourceKey hashes a module's name and source text together with a
// fingerprint of everything else the phase-1 record depends on (the
// toolchain fingerprint), in lowercase hexadecimal — the form the build
// state stores. Two sources collide only if every component matches. The byte
// layout is part of the build-dir format: changing it invalidates every
// stored record.
func sourceKey(name string, text []byte, fingerprint string) string {
	h := sha256.New()
	var n [8]byte
	put := func(b []byte) {
		binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
		h.Write(n[:])
		h.Write(b)
	}
	put([]byte(fingerprint))
	put([]byte(name))
	put(text)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// Wire format identity of a phase-1 record. The kind is named for the
// in-memory cache it once also fed; the name stays because its golden
// fixture (testdata/wire/cache-entry-v1.bin) pins it, not for old build
// directories, which the state's format version already retires. Bump the
// version whenever the body layout — the module encoding, the summary
// encoding, or their order — changes.
const (
	entryWireKind    = "cache-entry"
	entryWireVersion = 1
)

// EncodeEntry serializes a phase-1 module and its summary into one wire
// file whose body is the module followed by the summary, sharing a single
// string table.
func EncodeEntry(m *ir.Module, ms *summary.ModuleSummary) []byte {
	e := wire.NewEncoder(entryWireKind, entryWireVersion)
	ir.AppendModule(e, m)
	summary.AppendSummary(e, ms)
	return e.Finish()
}

// DecodeEntry is the inverse of EncodeEntry. Every call returns fresh
// copies that share no memory with data or with earlier results.
func DecodeEntry(data []byte) (*ir.Module, *summary.ModuleSummary, error) {
	d, err := wire.NewDecoder(data, entryWireKind, entryWireVersion)
	if err != nil {
		return nil, nil, fmt.Errorf("phase-1 record: %w", err)
	}
	m := ir.ReadModule(d)
	ms := summary.ReadSummary(d)
	if err := d.Finish(); err != nil {
		return nil, nil, fmt.Errorf("phase-1 record: %w", err)
	}
	return m, ms, nil
}
