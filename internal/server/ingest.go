package server

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"mime"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"coordsample/internal/core"
	"coordsample/internal/shard"
)

// laneSlot is one ingest lane of the current epoch: a multi-assignment
// front-end (shard.MultiLane) plus the mutex making it a single producer.
// Distinct slots offer concurrently; the shard layer's lane-merge guarantee
// makes the frozen sketches bit-identical to a single-stream pass
// regardless of how requests interleave across slots.
type laneSlot struct {
	mu sync.Mutex
	ml *shard.MultiLane
	// retained is, per assignment, how many candidates this lane's builder
	// held at its last flush — the level behind cws_ingest_sample_fill.
	retained []atomic.Int64
}

// ingestStat is one assignment's cumulative sampler counts across epochs:
// valid offers that reached a lane, and those a builder was offered (the
// rest were pruned against the shared admission threshold).
type ingestStat struct {
	offered, admitted atomic.Int64
}

// publish moves the slot's per-lane plain counters into the server's
// metrics — the flush boundary's bookkeeping, a few atomics per assignment
// per batch instead of any per record. The caller holds slot.mu.
func (slot *laneSlot) publish(stats []ingestStat) {
	for b := range stats {
		offered, admitted, retained := slot.ml.TakeCounts(b)
		stats[b].offered.Add(int64(offered))
		stats[b].admitted.Add(int64(admitted))
		slot.retained[b].Store(int64(retained))
	}
}

// epochIngest is one epoch's ingest state: the per-assignment sketchers
// and their lane slots. It is swapped out whole at freeze, so a producer
// that pinned it under ingestMu.RLock always offers into a coherent epoch.
type epochIngest struct {
	ms    *shard.MultiSketcher
	lanes []*laneSlot
}

// acquire locks a lane for one flush: the lowest-numbered idle one, or —
// when every lane is busy — the one the producer's ticket names, after
// waiting for it. Lowest first, not round-robin, because a lane prunes as
// well as the share of the stream it has seen allows: while one lane keeps
// up it sees everything and admits what a single builder would (two lanes
// fed alternately admit about half as much again), and the higher lanes
// take only what actually overlaps.
func (e *epochIngest) acquire(ticket uint32) *laneSlot {
	for _, slot := range e.lanes {
		if slot.mu.TryLock() {
			return slot
		}
	}
	slot := e.lanes[int(ticket)%len(e.lanes)]
	slot.mu.Lock()
	return slot
}

// newEpochIngest arms one lane sketcher per assignment behind the
// multi-assignment front-end, with cfg.Lanes concurrent producer lanes.
func newEpochIngest(cfg Config) *epochIngest {
	ms := core.NewMultiSketcher(cfg.Sample, cfg.Assignments, cfg.Lanes)
	mlanes := ms.Lanes()
	e := &epochIngest{ms: ms, lanes: make([]*laneSlot, len(mlanes))}
	for j, ml := range mlanes {
		e.lanes[j] = &laneSlot{ml: ml, retained: make([]atomic.Int64, cfg.Assignments)}
	}
	return e
}

// admitIngest applies the overload-shedding bound to one ingest request.
// When MaxInflight is exceeded the request is shed with 429 + Retry-After
// — an explicit, immediately retryable refusal instead of queueing on the
// lanes until every client's latency collapses. The returned release must
// be called when an admitted request finishes.
func (s *Server) admitIngest(w http.ResponseWriter) (release func(), ok bool) {
	if s.cfg.MaxInflight <= 0 {
		return func() {}, true
	}
	if n := s.inflight.Add(1); n > int64(s.cfg.MaxInflight) {
		s.inflight.Add(-1)
		s.sheds.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "ingest saturated (%d requests in flight); retry after backoff", s.cfg.MaxInflight)
		return nil, false
	}
	return func() { s.inflight.Add(-1) }, true
}

// --- ingestion ---

// Offer is one weighted observation of one assignment, as carried by
// POST /offer.
type Offer struct {
	Assignment int     `json:"assignment"`
	Key        string  `json:"key"`
	Weight     float64 `json:"weight"`
}

// offerRequest is the POST /offer body: either a single offer object or a
// batch under "offers" (both at once is accepted; the batch is processed
// first).
type offerRequest struct {
	Offer
	Offers []Offer `json:"offers"`
}

// maxOfferBody caps the POST /offer body (8 MiB ≈ 10^5 offers): the
// decoder materializes the whole batch before validation, so without a
// cap one request could exhaust the resident process's memory. Clients
// with more data send more batches — ingestion is cumulative anyway.
const maxOfferBody = 8 << 20

func (s *Server) handleOffer(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	started := time.Now()
	release, ok := s.admitIngest(w)
	if !ok {
		return
	}
	defer release()
	var req offerRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxOfferBody))
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "offer body exceeds %d bytes; split the batch", int64(maxOfferBody))
			return
		}
		writeError(w, http.StatusBadRequest, "decoding offer body: %v", err)
		return
	}
	batch := req.Offers
	if req.Key != "" {
		batch = append(batch, req.Offer)
	}
	if len(batch) == 0 {
		writeError(w, http.StatusBadRequest, "empty offer body (want an offer object or a nonempty \"offers\" array)")
		return
	}
	// Validate everything before ingesting anything, so a rejected request
	// never half-applies.
	prev := ""
	for i, o := range batch {
		if err := checkRecord(s, i, o.Assignment, o.Key, o.Weight, prev); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		prev = o.Key
	}
	if s.closed.Load() {
		writeError(w, http.StatusServiceUnavailable, "%v", errClosed)
		return
	}
	// Same staging and lane entry as /ingest; the batch lands on one lane.
	st := s.newIngestState()
	defer st.release()
	for _, o := range batch {
		if o.Weight == 0 {
			continue // never sampled
		}
		if err := stage(st, o.Assignment, o.Key, o.Weight); err != nil {
			writeError(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
	}
	if err := st.flush(); err != nil {
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	s.om.offer.Record(time.Since(started))
	writeJSON(w, http.StatusOK, map[string]any{"accepted": st.accepted, "epoch": st.epoch})
}

// --- streaming ingest ---

// ingestFlushEvery is how many staged records an ingest decoder accumulates
// before taking the ingest lock once and handing them to its lane. Large
// enough to amortize the lock far below per-offer cost, small enough to
// keep the per-request buffer memory trivial.
const ingestFlushEvery = 4096

// ingestFlushBytes flushes a staging batch early once its key arena holds
// this many bytes, so a stream of maximum-length keys stages about a
// megabyte per request instead of ingestFlushEvery × maxIngestKeyLen, and
// the staged records' 32-bit arena offsets can never overflow.
const ingestFlushBytes = 1 << 20

// maxIngestKeyLen bounds a single key in both /ingest framings, so a
// corrupt or malicious length prefix (binary) or oversized JSON string
// (NDJSON) cannot put an arbitrarily large key into the retained sample.
const maxIngestKeyLen = 1 << 16

// maxIngestRecord, the longest legal binary record, sizes its read buffer.
const maxIngestRecord = 2*binary.MaxVarintLen64 + maxIngestKeyLen + 8

// maxIngestBody caps one streaming NDJSON /ingest request. The decoder
// buffers one JSON token at a time, so without a cap a single multi-GB
// token could exhaust memory before validation runs. The binary framing
// needs no stream cap — every record is already length-bounded. Clients
// with more data send more requests; ingestion is cumulative anyway.
const maxIngestBody = 256 << 20

// ContentTypeBinaryIngest selects the binary framing of POST /ingest:
// records of (uvarint assignment, uvarint key length, key bytes, 8-byte
// little-endian IEEE-754 weight), concatenated until EOF. Any other
// content type is decoded as a stream of JSON offer objects (NDJSON —
// whitespace between objects, one per line by convention).
const ContentTypeBinaryIngest = "application/x-cws-ingest"

// ingestState is the decode side of one ingest request: a shard.Staged
// batch reused across flushes, and the binary decoder's read buffer. The
// whole state is pooled across requests, so steady-state ingest does not
// grow the heap.
type ingestState struct {
	srv      *Server
	buf      *shard.Staged
	br       *bufio.Reader // binary framing only; made on first use
	accepted int
	epoch    int
	ticket   uint32 // which lane to wait for when all are busy
}

func (s *Server) newIngestState() *ingestState {
	st := s.ingestStates.Get().(*ingestState)
	// Seed the reported epoch with the current one so a request whose
	// records are all skipped (or empty) still reports a real epoch.
	st.accepted, st.epoch, st.ticket = 0, int(s.epochNow.Load()), s.laneRR.Add(1)
	return st
}

// stage hashes and buffers one validated record — key as the decoder holds
// it, a string or a slice it is about to reuse — and flushes when the batch
// is full.
func stage[K string | []byte](st *ingestState, assignment int, key K, weight float64) error {
	shard.Stage(st.buf, assignment, key, weight)
	if st.buf.Len() >= ingestFlushEvery || st.buf.ArenaLen() >= ingestFlushBytes {
		return st.flush()
	}
	return nil
}

// flush hands the staged records to the stream's pinned lane under one
// epoch read lock plus one lane lock, publishes the lane's sampler counts,
// and resets the batch for reuse. Streams pinned to distinct lanes flush
// concurrently.
func (st *ingestState) flush() error {
	n := st.buf.Len()
	if n == 0 {
		return nil
	}
	s := st.srv
	s.ingestMu.RLock()
	if s.closed.Load() {
		s.ingestMu.RUnlock()
		return errClosed
	}
	slot := s.ingest.acquire(st.ticket)
	slot.ml.OfferStaged(st.buf)
	slot.publish(s.ingestStats)
	slot.mu.Unlock()
	s.dirty.Store(true)
	st.epoch = int(s.epochNow.Load())
	s.ingestMu.RUnlock()
	st.accepted += n
	st.buf.Reset()
	return nil
}

// release returns the state to the pool.
func (st *ingestState) release() {
	st.buf.Reset()
	if st.br != nil {
		st.br.Reset(nil) // drop the request body
	}
	st.srv.ingestStates.Put(st)
}

// handleIngest is the high-throughput ingest lane: a streaming request
// body — NDJSON offer objects, or the binary framing under
// ContentTypeBinaryIngest — decoded record by record into a reused staging
// batch and flushed to a lane in large batches. Unlike POST /offer there is
// no whole-body validation pass: records preceding a malformed one are
// ingested when the 400 is returned, and the error response's accepted
// count says how many. Zero weights are skipped; they are never sampled.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	started := time.Now()
	release, ok := s.admitIngest(w)
	if !ok {
		return
	}
	defer release()
	st := s.newIngestState()
	defer st.release()
	var err error
	// Parse the media type so parameters ("; charset=utf-8") and casing
	// do not silently reroute a binary body to the JSON decoder.
	mediaType, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type"))
	if mediaType == ContentTypeBinaryIngest {
		err = s.ingestBinary(st, r)
	} else {
		err = s.ingestNDJSON(st, r, w)
	}
	// Flush on the error path too: the valid records staged before a
	// malformed one are part of the accepted count the client is told.
	if ferr := st.flush(); ferr != nil {
		err = ferr
	}
	if errors.Is(err, errClosed) {
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	if err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, code, map[string]any{"error": err.Error(), "accepted": st.accepted})
		return
	}
	s.om.ingestStream.Record(time.Since(started))
	writeJSON(w, http.StatusOK, map[string]any{"accepted": st.accepted, "epoch": st.epoch})
}

// checkRecord validates record n of /offer or /ingest, in any of the three
// encodings and before any zero-weight skip, against the server
// configuration and, on a cluster member, the partition guard. prev is a
// key that passed the check (the previous record's, or the binary decoder's
// last staged one; empty for none): a record of its key run has its
// verdict, so the guard is asked once per run.
func checkRecord[K string | []byte](s *Server, n, assignment int, key K, weight float64, prev K) error {
	if len(key) == 0 {
		return fmt.Errorf("record %d: empty key", n)
	}
	if assignment < 0 || assignment >= s.cfg.Assignments {
		return fmt.Errorf("record %d: assignment %d out of range (have %d assignments)", n, assignment, s.cfg.Assignments)
	}
	if len(key) > maxIngestKeyLen {
		return fmt.Errorf("record %d: key length %d exceeds %d", n, len(key), maxIngestKeyLen)
	}
	if math.IsNaN(weight) || math.IsInf(weight, 0) || weight < 0 {
		return fmt.Errorf("record %d: invalid weight %v", n, weight)
	}
	if s.cfg.OwnsKey != nil && string(key) != string(prev) && !s.cfg.OwnsKey(string(key)) {
		return fmt.Errorf("record %d: key %q is not owned by this node (misrouted; check the cluster partition)", n, key)
	}
	return nil
}

// ingestNDJSON decodes a stream of JSON offer objects. json.Decoder
// tolerates any whitespace between objects, so both NDJSON and
// concatenated JSON work; the decode target is reused across records.
func (s *Server) ingestNDJSON(st *ingestState, r *http.Request, w http.ResponseWriter) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxIngestBody))
	var o Offer
	for n := 0; ; n++ {
		prev := o.Key
		o = Offer{}
		if err := dec.Decode(&o); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			// %w keeps the chain so the handler can map *http.MaxBytesError
			// (stream cap exceeded) to 413 instead of a generic 400.
			return fmt.Errorf("record %d: %w", n, err)
		}
		if err := checkRecord(s, n, o.Assignment, o.Key, o.Weight, prev); err != nil {
			return err
		}
		if o.Weight == 0 {
			continue
		}
		if err := stage(st, o.Assignment, o.Key, o.Weight); err != nil {
			return err
		}
	}
}

// ingestBinary decodes the length-prefixed binary framing in place. The
// read buffer holds the longest legal record, so every record is parsed
// where it lies — one the buffer's end cuts in two is first completed by
// Peek — and its key is hashed and staged straight from the buffer: no
// string is made for it here.
func (s *Server) ingestBinary(st *ingestState, r *http.Request) error {
	if st.br == nil {
		st.br = bufio.NewReaderSize(nil, maxIngestRecord)
	}
	br := st.br
	br.Reset(r.Body)
	for n := 0; ; n++ {
		var (
			buf, _    = br.Peek(br.Buffered())
			end       error // what ended the stream at buf's end, once Peek met it
			a, keyLen uint64
			n1, n2    int
		)
		for {
			a, n1 = binary.Uvarint(buf)
			if keyLen, n2 = 0, 0; n1 > 0 {
				keyLen, n2 = binary.Uvarint(buf[n1:])
			}
			if n2 > 0 && keyLen <= maxIngestKeyLen && uint64(len(buf)-n1-n2) >= keyLen+8 {
				break
			}
			need, err := binaryNeed(buf, n1, n2, keyLen, end)
			if err == io.EOF {
				return nil // the stream ended between records
			} else if err != nil {
				return fmt.Errorf("record %d: %w", n, err)
			}
			buf, end = br.Peek(need) // need ≤ maxIngestRecord: a short buf comes with end
		}
		size := n1 + n2 + int(keyLen) + 8
		key := buf[n1+n2 : size-8]
		weight := math.Float64frombits(binary.LittleEndian.Uint64(buf[size-8:]))
		if err := checkRecord(s, n, int(a), key, weight, st.buf.LastKey()); err != nil {
			return err
		}
		if weight != 0 {
			if err := stage(st, int(a), key, weight); err != nil {
				return err
			}
		}
		// key aliased the read buffer until it was staged; now let it go.
		_, _ = br.Discard(size) // cannot fail: size ≤ len(buf)
	}
}

// errVarintOverflow is the error, and its text, binary.ReadUvarint
// reports for a varint longer than 64 bits.
var errVarintOverflow = errors.New("binary: varint overflows a 64-bit integer")

// binaryNeed takes a record buf does not hold whole (n1, n2, keyLen: what
// binary.Uvarint made of its head) and returns the length buf must reach,
// or — malformed, or cut short by end — the error binary.ReadUvarint and
// io.ReadFull would report; io.EOF when the stream ended between records.
func binaryNeed(buf []byte, n1, n2 int, keyLen uint64, end error) (int, error) {
	field, n, rest := "assignment", n1, len(buf) // the first field buf cuts, and its bytes in buf
	if n1 > 0 {
		field, n, rest = "key length", n2, len(buf)-n1
	}
	switch {
	case n < 0 || n == 0 && rest >= binary.MaxVarintLen64:
		return 0, fmt.Errorf("reading %s: %w", field, errVarintOverflow)
	case n > 0 && keyLen > maxIngestKeyLen:
		return 0, fmt.Errorf("key length %d exceeds %d", keyLen, maxIngestKeyLen)
	case end == nil && n == 0:
		return len(buf) + 1, nil
	case end == nil:
		return n1 + n2 + int(keyLen) + 8, nil
	case len(buf) == 0 && end == io.EOF:
		return 0, io.EOF
	case n > 0: // the key or the weight is cut
		field, rest = "key", len(buf)-n1-n2
		if rest >= int(keyLen) {
			field, rest = "weight", rest-int(keyLen)
		}
	}
	if rest > 0 && end == io.EOF {
		end = io.ErrUnexpectedEOF
	}
	return 0, fmt.Errorf("reading %s: %w", field, end)
}

// AppendBinaryOffer appends one offer in the POST /ingest binary framing —
// the encoder counterpart of the server's decoder, shared by clients and
// the ingest benchmark.
func AppendBinaryOffer(dst []byte, assignment int, key string, weight float64) []byte {
	dst = binary.AppendUvarint(dst, uint64(assignment))
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = append(dst, key...)
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(weight))
}
