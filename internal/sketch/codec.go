// Wire codec for bottom-k and Poisson sketches: the serialization layer
// that lets dispersed sites actually ship their summaries to a combiner
// (the operational promise of the paper's dispersed model; "What You Can Do
// with Coordinated Samples" assumes exactly this workflow).
//
// A sketch file is self-describing: a versioned header carries the full
// construction configuration (rank family, coordination mode, seed,
// assignment index, k) plus its fingerprint digest, followed by the
// conditioning ranks (r_k and r_{k+1} for bottom-k, τ for Poisson) and the
// entries. Two formats share one schema:
//
//   - binary: fixed little-endian header + length-prefixed entries, with
//     float64 values stored as IEEE-754 bit patterns (exact round-trip);
//   - JSON: the same fields with float64 values as hexadecimal float
//     literals (strconv 'x' format — also exact, including ±Inf) and
//     64-bit integers as strings (JSON numbers lose precision past 2^53).
//
// Decoding is strict: every structural invariant of a frozen sketch
// (entry ordering, distinct keys, positive finite weights, conditioning
// ranks consistent with the entry count) is revalidated, and the stored
// fingerprint must equal the digest recomputed from the stored
// configuration. A decoded sketch is therefore exactly as trustworthy as
// one built in-process, and arbitrary input can never produce a sketch
// that violates estimator preconditions — the decoder returns errors, it
// never panics (see FuzzDecode).
package sketch

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"

	"coordsample/internal/rank"
)

// Codec selects the wire format of an encoded sketch.
type Codec int

const (
	// CodecBinary is the compact fixed-layout format.
	CodecBinary Codec = iota
	// CodecJSON is the self-describing text format.
	CodecJSON
)

// String names the codec as accepted by ParseCodec.
func (c Codec) String() string {
	switch c {
	case CodecBinary:
		return "binary"
	case CodecJSON:
		return "json"
	default:
		return fmt.Sprintf("Codec(%d)", int(c))
	}
}

// ParseCodec parses a codec name ("binary" or "json").
func ParseCodec(s string) (Codec, error) {
	switch s {
	case "binary":
		return CodecBinary, nil
	case "json":
		return CodecJSON, nil
	default:
		return 0, fmt.Errorf("sketch: unknown codec %q (want binary or json)", s)
	}
}

// WireMeta is the construction configuration a sketch file carries: enough
// to rebuild the rank assigner at the combiner and therefore to answer
// queries from files alone. The sample size k is not part of WireMeta — it
// lives on the sketch (and is 0 for Poisson sketches, whose τ travels in
// the sketch body).
type WireMeta struct {
	Family     rank.Family
	Mode       rank.Coordination
	Seed       uint64
	Assignment int
}

// Assigner returns the rank assigner described by the metadata.
func (m WireMeta) Assigner() rank.Assigner {
	return rank.Assigner{Family: m.Family, Mode: m.Mode, Seed: m.Seed}
}

// Decoded is the result of decoding a sketch file: the construction
// metadata plus exactly one of the two sketch kinds.
type Decoded struct {
	Meta    WireMeta
	BottomK *BottomK // non-nil for bottom-k files
	Poisson *Poisson // non-nil for Poisson files
}

// Fingerprint returns the verified configuration fingerprint of the
// decoded sketch.
func (d *Decoded) Fingerprint() uint64 {
	if d.BottomK != nil {
		return d.BottomK.Fingerprint()
	}
	return d.Poisson.Fingerprint()
}

// Binary format constants.
const (
	wireVersion = 1

	kindBottomK = 1
	kindPoisson = 2

	// headerSize is the fixed binary header: magic(4) version(1) kind(1)
	// family(1) mode(1) seed(8) assignment(4) k(4) fingerprint(8)
	// condA(8) condB(8) count(4).
	headerSize = 4 + 1 + 1 + 1 + 1 + 8 + 4 + 4 + 8 + 8 + 8 + 4

	// minEntrySize bounds the bytes one encoded entry occupies: key length
	// prefix (4) + rank bits (8) + weight bits (8), with an empty key.
	minEntrySize = 4 + 8 + 8
)

// wireMagic opens every binary sketch file.
var wireMagic = [4]byte{'C', 'W', 'S', 'K'}

// EncodeBottomK writes s as a sketch file in the given format. meta must
// describe the configuration the sketch was actually built under: the
// sketch's fingerprint is checked against meta's digest and a mismatch (or
// a standalone, unfingerprinted sketch) is rejected with a
// *FingerprintMismatchError, so a file can never ship a sketch whose
// provenance its header misstates.
func EncodeBottomK(w io.Writer, c Codec, meta WireMeta, s *BottomK) error {
	if err := checkWireMeta(meta, s.K(), s.Fingerprint()); err != nil {
		return err
	}
	switch c {
	case CodecBinary:
		return encodeBinary(w, kindBottomK, meta, uint32(s.K()), s.Fingerprint(), s.KthRank(), s.Threshold(), s.Entries())
	case CodecJSON:
		return encodeJSON(w, kindBottomK, meta, s.K(), s.Fingerprint(), s.KthRank(), s.Threshold(), s.Entries())
	default:
		return fmt.Errorf("sketch: unknown codec %v", c)
	}
}

// EncodePoisson writes s as a sketch file in the given format, with the
// same fingerprint verification as EncodeBottomK (Poisson fingerprints use
// k = 0; τ travels in the sketch body).
func EncodePoisson(w io.Writer, c Codec, meta WireMeta, s *Poisson) error {
	if err := checkWireMeta(meta, 0, s.Fingerprint()); err != nil {
		return err
	}
	switch c {
	case CodecBinary:
		return encodeBinary(w, kindPoisson, meta, 0, s.Fingerprint(), s.Tau(), 0, s.Entries())
	case CodecJSON:
		return encodeJSON(w, kindPoisson, meta, 0, s.Fingerprint(), s.Tau(), 0, s.Entries())
	default:
		return fmt.Errorf("sketch: unknown codec %v", c)
	}
}

// checkWireMeta verifies that meta describes a sketch of size k carrying
// fingerprint fp, and that its assignment index is encodable.
func checkWireMeta(meta WireMeta, k int, fp uint64) error {
	if want := meta.Assigner().Fingerprint(meta.Assignment, k); fp != want {
		return &FingerprintMismatchError{Index: -1, Want: want, Got: fp}
	}
	if meta.Assignment < 0 || meta.Assignment > math.MaxInt32 {
		return fmt.Errorf("sketch: assignment index %d not encodable", meta.Assignment)
	}
	return nil
}

// Decode reads one sketch file (either format, auto-detected) and returns
// the validated sketch with its metadata.
func Decode(r io.Reader) (*Decoded, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("sketch: reading sketch file: %w", err)
	}
	return DecodeBytes(data)
}

// DecodeBytes decodes one sketch file from memory. The format is detected
// from the leading bytes: binary files open with the "CWSK" magic, JSON
// files with '{' (possibly after whitespace).
func DecodeBytes(data []byte) (*Decoded, error) {
	if len(data) >= len(wireMagic) && bytes.Equal(data[:len(wireMagic)], wireMagic[:]) {
		return decodeBinary(data)
	}
	if i := indexNonSpace(data); i >= 0 && data[i] == '{' {
		return decodeJSON(data)
	}
	return nil, fmt.Errorf("sketch: not a sketch file (no %q magic and no JSON object)", wireMagic)
}

func indexNonSpace(data []byte) int {
	for i, b := range data {
		switch b {
		case ' ', '\t', '\n', '\r':
		default:
			return i
		}
	}
	return -1
}

// --- binary format ---

func encodeBinary(w io.Writer, kind byte, meta WireMeta, k uint32, fp uint64, condA, condB float64, entries []Entry) error {
	size := headerSize
	for _, e := range entries {
		size += minEntrySize + len(e.Key)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, wireMagic[:]...)
	buf = append(buf, wireVersion, kind, byte(meta.Family), byte(meta.Mode))
	buf = binary.LittleEndian.AppendUint64(buf, meta.Seed)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(meta.Assignment))
	buf = binary.LittleEndian.AppendUint32(buf, k)
	buf = binary.LittleEndian.AppendUint64(buf, fp)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(condA))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(condB))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(entries)))
	for _, e := range entries {
		if len(e.Key) > math.MaxInt32 {
			return fmt.Errorf("sketch: key of %d bytes not encodable", len(e.Key))
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e.Key)))
		buf = append(buf, e.Key...)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.Rank))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.Weight))
	}
	_, err := w.Write(buf)
	return err
}

func decodeBinary(data []byte) (*Decoded, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("sketch: truncated header (%d bytes, want %d)", len(data), headerSize)
	}
	if data[4] != wireVersion {
		return nil, fmt.Errorf("sketch: unsupported wire version %d (want %d)", data[4], wireVersion)
	}
	kind := data[5]
	meta := WireMeta{
		Family: rank.Family(data[6]),
		Mode:   rank.Coordination(data[7]),
		Seed:   binary.LittleEndian.Uint64(data[8:]),
	}
	assignment := binary.LittleEndian.Uint32(data[16:])
	if assignment > math.MaxInt32 {
		return nil, fmt.Errorf("sketch: assignment index %d out of range", assignment)
	}
	meta.Assignment = int(assignment)
	k := binary.LittleEndian.Uint32(data[20:])
	fp := binary.LittleEndian.Uint64(data[24:])
	condA := math.Float64frombits(binary.LittleEndian.Uint64(data[32:]))
	condB := math.Float64frombits(binary.LittleEndian.Uint64(data[40:]))
	count := binary.LittleEndian.Uint32(data[48:])

	rest := data[headerSize:]
	// Each entry occupies at least minEntrySize bytes, so a count that
	// could not fit in the remaining input is rejected before allocating.
	if uint64(count)*minEntrySize > uint64(len(rest)) {
		return nil, fmt.Errorf("sketch: entry count %d exceeds input size", count)
	}
	entries := make([]Entry, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(rest) < 4 {
			return nil, fmt.Errorf("sketch: truncated entry %d", i)
		}
		keyLen := binary.LittleEndian.Uint32(rest)
		rest = rest[4:]
		if uint64(keyLen) > uint64(len(rest)) || len(rest[keyLen:]) < 16 {
			return nil, fmt.Errorf("sketch: truncated entry %d", i)
		}
		key := string(rest[:keyLen])
		rest = rest[keyLen:]
		r := math.Float64frombits(binary.LittleEndian.Uint64(rest))
		w := math.Float64frombits(binary.LittleEndian.Uint64(rest[8:]))
		rest = rest[16:]
		entries = append(entries, Entry{Key: key, Rank: r, Weight: w})
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("sketch: %d trailing bytes after entries", len(rest))
	}
	return validateDecoded(kind, meta, int(k), fp, condA, condB, entries, nil)
}

// --- JSON format ---

// jsonFormatName identifies sketch files among other JSON documents.
const jsonFormatName = "cws-sketch"

type jsonSketch struct {
	Format      string      `json:"format"`
	Version     int         `json:"version"`
	Kind        string      `json:"kind"`
	Family      string      `json:"family"`
	Mode        string      `json:"mode"`
	Seed        string      `json:"seed"`
	Assignment  int         `json:"assignment"`
	K           int         `json:"k"`
	Fingerprint string      `json:"fingerprint"`
	Kth         string      `json:"kth,omitempty"`
	Threshold   string      `json:"threshold,omitempty"`
	Tau         string      `json:"tau,omitempty"`
	Entries     []jsonEntry `json:"entries"`
}

type jsonEntry struct {
	Key    string `json:"key"`
	Rank   string `json:"rank"`
	Weight string `json:"weight"`
}

// wireFloat formats a float64 as a hexadecimal literal ('x' format), which
// ParseFloat inverts exactly — including ±Inf, which plain JSON numbers
// cannot represent at all.
func wireFloat(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

func parseWireFloat(field, s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("sketch: bad %s %q: %w", field, s, err)
	}
	return v, nil
}

func encodeJSON(w io.Writer, kind byte, meta WireMeta, k int, fp uint64, condA, condB float64, entries []Entry) error {
	js := jsonSketch{
		Format:      jsonFormatName,
		Version:     wireVersion,
		Family:      meta.Family.String(),
		Mode:        meta.Mode.String(),
		Seed:        strconv.FormatUint(meta.Seed, 10),
		Assignment:  meta.Assignment,
		K:           k,
		Fingerprint: "0x" + strconv.FormatUint(fp, 16),
		Entries:     make([]jsonEntry, len(entries)),
	}
	switch kind {
	case kindBottomK:
		js.Kind = "bottomk"
		js.Kth = wireFloat(condA)
		js.Threshold = wireFloat(condB)
	case kindPoisson:
		js.Kind = "poisson"
		js.Tau = wireFloat(condA)
	}
	for i, e := range entries {
		js.Entries[i] = jsonEntry{Key: e.Key, Rank: wireFloat(e.Rank), Weight: wireFloat(e.Weight)}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(js)
}

func decodeJSON(data []byte) (*Decoded, error) {
	var js jsonSketch
	if err := json.Unmarshal(data, &js); err != nil {
		return nil, fmt.Errorf("sketch: parsing JSON sketch: %w", err)
	}
	if js.Format != jsonFormatName {
		return nil, fmt.Errorf("sketch: JSON format %q, want %q", js.Format, jsonFormatName)
	}
	if js.Version != wireVersion {
		return nil, fmt.Errorf("sketch: unsupported wire version %d (want %d)", js.Version, wireVersion)
	}
	var kind byte
	var condA, condB float64
	var err error
	switch js.Kind {
	case "bottomk":
		kind = kindBottomK
		if condA, err = parseWireFloat("kth", js.Kth); err != nil {
			return nil, err
		}
		if condB, err = parseWireFloat("threshold", js.Threshold); err != nil {
			return nil, err
		}
	case "poisson":
		kind = kindPoisson
		if condA, err = parseWireFloat("tau", js.Tau); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("sketch: unknown sketch kind %q", js.Kind)
	}
	var meta WireMeta
	switch js.Family {
	case rank.IPPS.String():
		meta.Family = rank.IPPS
	case rank.EXP.String():
		meta.Family = rank.EXP
	default:
		return nil, fmt.Errorf("sketch: unknown rank family %q", js.Family)
	}
	switch js.Mode {
	case rank.SharedSeed.String():
		meta.Mode = rank.SharedSeed
	case rank.Independent.String():
		meta.Mode = rank.Independent
	case rank.IndependentDifferences.String():
		meta.Mode = rank.IndependentDifferences
	default:
		return nil, fmt.Errorf("sketch: unknown coordination mode %q", js.Mode)
	}
	if meta.Seed, err = strconv.ParseUint(js.Seed, 10, 64); err != nil {
		return nil, fmt.Errorf("sketch: bad seed %q: %w", js.Seed, err)
	}
	meta.Assignment = js.Assignment
	fp, err := strconv.ParseUint(js.Fingerprint, 0, 64)
	if err != nil {
		return nil, fmt.Errorf("sketch: bad fingerprint %q: %w", js.Fingerprint, err)
	}
	entries := make([]Entry, len(js.Entries))
	for i, je := range js.Entries {
		r, err := parseWireFloat("rank", je.Rank)
		if err != nil {
			return nil, err
		}
		w, err := parseWireFloat("weight", je.Weight)
		if err != nil {
			return nil, err
		}
		entries[i] = Entry{Key: je.Key, Rank: r, Weight: w}
	}
	return validateDecoded(kind, meta, js.K, fp, condA, condB, entries, nil)
}

// --- shared validation ---

// validateDecoded re-establishes every invariant a frozen sketch holds,
// then reconstructs it. Every decoder funnels through here, so no input —
// however malformed — can yield a sketch that the estimators would
// mis-handle. A non-nil byKey is the key order from a decoder that proved
// the keys distinct (a segment's dictionary); nil runs checkDistinct.
func validateDecoded(kind byte, meta WireMeta, k int, fp uint64, condA, condB float64, entries []Entry, byKey []int32) (*Decoded, error) {
	if meta.Family != rank.IPPS && meta.Family != rank.EXP {
		return nil, fmt.Errorf("sketch: unknown rank family %d", meta.Family)
	}
	switch meta.Mode {
	case rank.SharedSeed, rank.Independent, rank.IndependentDifferences:
	default:
		return nil, fmt.Errorf("sketch: unknown coordination mode %d", meta.Mode)
	}
	// Bound the assignment index for every decode path (the JSON decoder
	// would otherwise accept any int the document claims, and downstream
	// combiners size slices by it).
	if meta.Assignment < 0 || meta.Assignment > math.MaxInt32 {
		return nil, fmt.Errorf("sketch: assignment index %d out of range", meta.Assignment)
	}
	for i, e := range entries {
		if math.IsNaN(e.Rank) || math.IsInf(e.Rank, 0) || e.Rank <= 0 {
			return nil, fmt.Errorf("sketch: entry %d has invalid rank %v", i, e.Rank)
		}
		if math.IsNaN(e.Weight) || math.IsInf(e.Weight, 0) || e.Weight <= 0 {
			return nil, fmt.Errorf("sketch: entry %d has invalid weight %v", i, e.Weight)
		}
		if i > 0 && !entryLess(entries[i-1], e) {
			return nil, fmt.Errorf("sketch: entries out of (rank, key) order at %d", i)
		}
	}
	if byKey == nil {
		if dup, ok := checkDistinct(entries); !ok {
			return nil, fmt.Errorf("sketch: duplicate key %q", dup)
		}
	}

	switch kind {
	case kindBottomK:
		if k < 1 {
			return nil, fmt.Errorf("sketch: invalid bottom-k size %d", k)
		}
		if len(entries) > k {
			return nil, fmt.Errorf("sketch: %d entries exceed k=%d", len(entries), k)
		}
		kth, threshold := condA, condB
		if len(entries) == k {
			if kth != entries[k-1].Rank {
				return nil, fmt.Errorf("sketch: stored r_k %v does not match last entry rank %v", kth, entries[k-1].Rank)
			}
			if math.IsNaN(threshold) || threshold < kth {
				return nil, fmt.Errorf("sketch: stored r_{k+1} %v below r_k %v", threshold, kth)
			}
		} else {
			// Fewer than k keys existed, so neither the k-th nor the
			// (k+1)-st smallest rank does.
			if !math.IsInf(kth, 1) || !math.IsInf(threshold, 1) {
				return nil, fmt.Errorf("sketch: %d < k=%d entries require infinite conditioning ranks, got r_k=%v r_{k+1}=%v", len(entries), k, kth, threshold)
			}
		}
		if want := meta.Assigner().Fingerprint(meta.Assignment, k); fp != want {
			return nil, &FingerprintMismatchError{Index: -1, Want: want, Got: fp}
		}
		s := &BottomK{sample: sample{entries: entries, byKey: byKey}, k: k, fingerprint: fp, kth: kth, threshold: threshold}
		return &Decoded{Meta: meta, BottomK: s}, nil

	case kindPoisson:
		if k != 0 {
			return nil, fmt.Errorf("sketch: Poisson sketch with k=%d (want 0)", k)
		}
		tau := condA
		if math.IsNaN(tau) || tau <= 0 {
			return nil, fmt.Errorf("sketch: invalid Poisson threshold %v", tau)
		}
		if condB != 0 {
			return nil, fmt.Errorf("sketch: nonzero reserved field %v in Poisson sketch", condB)
		}
		for i, e := range entries {
			if e.Rank >= tau {
				return nil, fmt.Errorf("sketch: entry %d rank %v not below τ=%v", i, e.Rank, tau)
			}
		}
		if want := meta.Assigner().Fingerprint(meta.Assignment, 0); fp != want {
			return nil, &FingerprintMismatchError{Index: -1, Want: want, Got: fp}
		}
		s := &Poisson{sample: sample{entries: entries, byKey: byKey}, tau: tau, fingerprint: fp}
		return &Decoded{Meta: meta, Poisson: s}, nil

	default:
		return nil, fmt.Errorf("sketch: unknown sketch kind %d", kind)
	}
}
