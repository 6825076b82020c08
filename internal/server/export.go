package server

import (
	"fmt"
	"net/http"
	"strconv"

	"coordsample/internal/cliquery"
	"coordsample/internal/faults"
	"coordsample/internal/sketch"
	"coordsample/internal/store"
)

// --- sketch export ---

// handleSketches is the server's one sketch export — the cluster layer's
// peer bulk-fetch RPC, and the file cws-merge reads: every assignment's
// cumulative sketch (or the ?epochs=lo..hi window's) as one multi-sketch
// segment — the same self-describing, CRC-closed framing the durable store
// persists — with the snapshot epoch in X-CWS-Epoch. The scatter-gather
// router decodes, checksums, and fingerprint-verifies the segment before
// merging, so a torn or corrupted response surfaces as a typed decode
// error, never as a silently wrong estimate.
//
// Every response carries a strong ETag naming exactly the bytes a full
// response would hold: "<boot nonce>-<epoch>" for the cumulative set (the
// snapshot is swapped only by New and freeze), "<boot nonce>-<lo>..<hi>"
// for a window (a retained epoch never changes, so the tag survives later
// freezes until the window leaves retention — which is a 400, checked
// first). A request whose If-None-Match equals the tag is answered 304
// before anything is merged or encoded: the router keeps the set it
// validated last and pays one header round trip for an unchanged peer. The
// cumulative set's bytes are the snapshot's segment; a window's are
// encoded on every export.
func (s *Server) handleSketches(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	out := s.cfg.Faults.Act(FaultSketches)
	if out.Drop {
		// Sever the connection without a response: the fetch side sees a
		// transport error mid-read — the retry path's food.
		panic(http.ErrAbortHandler)
	}
	if out.Err != nil {
		writeError(w, http.StatusInternalServerError, "%v", out.Err)
		return
	}
	snap := s.snap.Load()
	eq := r.URL.Query().Get("epochs")
	etag, sketches, werr := s.sketchSet(snap, eq, r.Header.Get("If-None-Match"))
	if werr != nil {
		writeError(w, werr.Code, "%v", werr)
		return
	}
	w.Header().Set("ETag", etag)
	w.Header().Set("X-CWS-Epoch", strconv.Itoa(snap.epoch))
	if sketches == nil {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	var data []byte
	if eq == "" {
		snap.segmentOnce.Do(func() {
			if snap.segment == nil {
				snap.segment = s.encodeExport(snap.cum.Sketches())
			}
		})
		data = snap.segment
	} else {
		data = s.encodeExport(sketches)
	}
	if out.Torn {
		// A torn response with a self-consistent Content-Length: the bytes
		// arrive "successfully" and the corruption must be caught by the
		// router's segment validation, not by the transport.
		data = faults.Tear(data)
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	_, _ = w.Write(data)
	s.segmentExports.Add(1)
}

// sketchSet resolves a /sketches request against snap: the validator and,
// unless it equals ifNoneMatch, the cumulative sketches or the window's,
// merged in full. A window is refused (*WindowError) before the 304.
func (s *Server) sketchSet(snap *snapshot, epochs, ifNoneMatch string) (string, []*sketch.BottomK, *WindowError) {
	if epochs == "" {
		etag := fmt.Sprintf(`"%s-%d"`, s.nonce, snap.epoch)
		if etag == ifNoneMatch {
			return etag, nil, nil
		}
		return etag, snap.cum.Sketches(), nil
	}
	lo, hi, err := cliquery.ParseEpochRange(epochs)
	if err != nil {
		return "", nil, &WindowError{http.StatusBadRequest, fmt.Errorf("bad epochs parameter: %v", err)}
	}
	if _, err := store.Window(snap.retained, snap.epoch, lo, hi); err != nil {
		return "", nil, &WindowError{http.StatusBadRequest, err}
	}
	span := fmt.Sprintf("%d..%d", lo, hi)
	etag := `"` + s.nonce + "-" + span + `"`
	if etag == ifNoneMatch {
		return etag, nil, nil
	}
	rs, werr := s.window(snap, nil, span, lo, hi, nil)
	if werr != nil {
		return "", nil, werr
	}
	return etag, rs.Sketches(), nil
}

// LocalSketches is GET /sketches?epochs= in process, for a cluster router on
// this node (cluster.Local): the sketches themselves instead of a segment.
func (s *Server) LocalSketches(epochs, ifNoneMatch string) (etag string, epoch int, sketches []*sketch.BottomK, err error) {
	snap := s.snap.Load()
	etag, sketches, werr := s.sketchSet(snap, epochs, ifNoneMatch)
	if werr != nil { // never return a nil *WindowError as a non-nil error
		return "", snap.epoch, nil, werr
	}
	return etag, snap.epoch, sketches, nil
}

// encodeExport encodes a /sketches response's segment and counts the
// encode.
func (s *Server) encodeExport(sketches []*sketch.BottomK) []byte {
	s.exportEncodes.Add(1)
	return s.exportSegment(sketches)
}

// exportSegment encodes sketches as a /sketches segment; they are this
// server's own, so a failure is a programming error.
func (s *Server) exportSegment(sketches []*sketch.BottomK) []byte {
	data, _, err := sketch.MarshalSegment(s.cfg.Sample.WireMetas(len(sketches)), sketches)
	if err != nil {
		panic(fmt.Sprintf("server: %v", err))
	}
	return data
}
