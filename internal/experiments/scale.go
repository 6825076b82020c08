package experiments

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"coordsample/internal/core"
	"coordsample/internal/dataset"
	"coordsample/internal/rank"
	"coordsample/internal/server"
	"coordsample/internal/sketch"
	"coordsample/internal/store"
)

func init() {
	register(Experiment{
		ID:    "scale",
		Paper: "not from the paper",
		Desc:  "multi-core scaling: concurrent lane ingest, parallel freeze, and durable (parallel-persist) freeze across a gomaxprocs sweep with lanes = gomaxprocs; every cell's frozen sketches verified bit-identical to the single-stream builder",
		Run:   runScale,
	})
}

// flattenColumns flattens the dataset into per-assignment aggregated
// streams, so the measured loops pay no accessor overhead.
func flattenColumns(ds *dataset.Dataset) ([]ingestColumn, int) {
	cols := make([]ingestColumn, ds.NumAssignments())
	offered := 0
	for b := 0; b < ds.NumAssignments(); b++ {
		col := ds.Column(b)
		for i := 0; i < ds.NumKeys(); i++ {
			if col[i] > 0 {
				cols[b].keys = append(cols[b].keys, ds.Key(i))
				cols[b].weights = append(cols[b].weights, col[i])
				offered++
			}
		}
	}
	return cols, offered
}

// runScale measures how the ingest→freeze→persist pipeline scales with
// schedulable cores. Each cell pins GOMAXPROCS to p and uses p ingest
// lanes (one producer goroutine per lane, round-robin partition of the
// stream): lane ingest throughput, in-memory freeze latency (parallel
// per-assignment lane freeze + merge), and durable freeze latency (freeze +
// parallel segment encode + fsync'd persist through the epoch store, end to
// end over the HTTP handler). Speedups are vs the p=1 cell. The correctness
// column is the experiment's point: however many cores and lanes a cell
// used, its frozen sketches must be bit-identical — entries, r_k, r_{k+1}
// — to the single-stream builder's.
func runScale(opts Options) Result {
	opts = opts.WithDefaults()
	ds := serveDataset(opts)
	k := 1024
	if m := ds.NumKeys() / 4; k > m && m >= 1 {
		k = m
	}
	cols, offered := flattenColumns(ds)
	numAsg := len(cols)
	cfg := core.Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: opts.Seed, K: k}
	runs := ingestRuns(opts)

	// Single-stream reference: the bit-identity oracle for every cell.
	ref := make([]*sketch.BottomK, numAsg)
	for b := 0; b < numAsg; b++ {
		sk := core.NewAssignmentSketcher(cfg, b)
		for i, key := range cols[b].keys {
			sk.Offer(key, cols[b].weights[i])
		}
		ref[b] = sk.Sketch()
	}

	// Pre-encode the binary /ingest body once for the durable-freeze cells.
	var binBody []byte
	for b := range cols {
		for i, key := range cols[b].keys {
			binBody = server.AppendBinaryOffer(binBody, b, key, cols[b].weights[i])
		}
	}

	procsSweep := []int{1, 2, 4, 8, 16}
	origProcs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(origProcs)

	t := Table{
		Title: fmt.Sprintf("multi-core scaling, %d offers (%d keys × %d assignments), k=%d, lanes=gomaxprocs, best of %d runs; speedup is vs the gomaxprocs=1 cell; this machine has %d hardware thread(s) — cells above that timeshare cores and measure overhead, not speedup",
			offered, ds.NumKeys(), numAsg, k, runs, runtime.NumCPU()),
		Columns: []string{"gomaxprocs", "offers/s", "ingest_speedup", "freeze", "freeze_speedup", "durable_freeze", "identical"},
	}

	var baseIngest, baseFreeze float64 // p=1 seconds, the speedup denominators
	for _, p := range procsSweep {
		runtime.GOMAXPROCS(p)
		bestIngest := time.Duration(1<<63 - 1)
		bestFreeze := time.Duration(1<<63 - 1)
		var frozen []*sketch.BottomK
		for r := 0; r < runs; r++ {
			m := core.NewMultiSketcher(cfg, numAsg, p)
			mlanes := m.Lanes()
			start := time.Now()
			var wg sync.WaitGroup
			for j := range mlanes {
				wg.Add(1)
				go func(j int) {
					defer wg.Done()
					ml := mlanes[j]
					for b := range cols {
						keys, weights := cols[b].keys, cols[b].weights
						for i := j; i < len(keys); i += len(mlanes) {
							ml.Offer(b, keys[i], weights[i])
						}
					}
				}(j)
			}
			wg.Wait()
			if d := time.Since(start); d < bestIngest {
				bestIngest = d
			}
			start = time.Now()
			sk := m.Sketches()
			if d := time.Since(start); d < bestFreeze {
				bestFreeze = d
			}
			frozen = sk
		}

		// Durable freeze: the same freeze through the serving layer with
		// an attached store — parallel per-assignment freeze, parallel
		// segment encode, fsync'd manifest append, all inside the
		// acknowledged POST /freeze.
		durable := func() time.Duration {
			dir, err := os.MkdirTemp("", "cws-scale-*")
			if err != nil {
				panic(err)
			}
			defer os.RemoveAll(dir)
			st, err := store.Open(store.Config{Dir: dir, Retain: 2, Sample: cfg, Assignments: numAsg})
			if err != nil {
				panic(err)
			}
			defer st.Close()
			srv, err := server.New(server.Config{Sample: cfg, Assignments: numAsg, Lanes: p, Store: st})
			if err != nil {
				panic(err)
			}
			defer srv.Close()
			req, _ := http.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(binBody))
			req.Header.Set("Content-Type", server.ContentTypeBinaryIngest)
			srv.ServeHTTP(newDiscardWriter(false), req)
			freezeReq, _ := http.NewRequest(http.MethodPost, "/freeze", nil)
			start := time.Now()
			srv.ServeHTTP(newDiscardWriter(false), freezeReq)
			return time.Since(start)
		}()

		ingestSec, freezeSec := bestIngest.Seconds(), bestFreeze.Seconds()
		if p == procsSweep[0] {
			baseIngest, baseFreeze = ingestSec, freezeSec
		}
		t.AddRow(
			fmt.Sprintf("%d", p),
			fsci(float64(offered)/ingestSec),
			fmt.Sprintf("%.2fx", baseIngest/ingestSec),
			bestFreeze.Round(time.Microsecond).String(),
			fmt.Sprintf("%.2fx", baseFreeze/freezeSec),
			durable.Round(time.Microsecond).String(),
			fmt.Sprintf("%v", identicalSketches(frozen, ref)),
		)
	}
	return Result{Tables: []Table{t}}
}
