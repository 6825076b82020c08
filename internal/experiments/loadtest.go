package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"coordsample/internal/core"
	"coordsample/internal/obs"
	"coordsample/internal/rank"
	"coordsample/internal/server"
	"coordsample/internal/sketch"
)

// overloadInflight is the deliberately tiny admission bound of the
// Options.Overload loadtest mode: with far more client connections than
// admitted ingests, most requests are shed and must be retried.
const overloadInflight = 2

// Overload-mode clients stream each chunk as a paced chunked upload
// (overloadPiece bytes every overloadPace) instead of one buffered body.
// The admission bound counts requests that HOLD a slot, and a handler
// only holds one for longer than its own CPU time when it parks waiting
// for body bytes: a fully-buffered loopback upload sits complete in the
// kernel socket buffer before the handler runs, so handlers finish
// back-to-back and the inflight count never accumulates (on a single-core
// host it literally cannot exceed the running handler). Slow producers
// are the scenario shedding exists for — requests piling up on the lanes
// while their bodies trickle in — so the overload load shape models them.
const (
	overloadPiece = 4096
	overloadPace  = 500 * time.Microsecond
)

func init() {
	register(Experiment{
		ID:    "loadtest",
		Paper: "not from the paper",
		Desc:  "network load test: concurrent keep-alive binary /ingest connections against a live cws-serve (in-process over real TCP by default, -addr targets an external one); answers verified against the offline pipeline",
		Run:   runLoadtest,
	})
}

// loadClient is one load-generator connection: its own Transport capped at
// one TCP connection, so conns clients ≍ conns keep-alive sockets.
func newLoadClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
}

// runLoadtest drives concurrent streaming /ingest clients — each holding
// one keep-alive TCP connection and sequentially POSTing binary-framed
// chunks of its disjoint stream partition — against a live cws-serve over
// real sockets. By default each connection-count cell gets a fresh
// in-process server on an ephemeral 127.0.0.1 port (GOMAXPROCS lanes, so
// concurrent requests offer in parallel); with Options.Addr the same
// client fleet targets an external cws-serve instead (one cell; the
// freeze-and-verify step runs only when the target starts at epoch 0,
// since verification needs the server to hold exactly this stream).
func runLoadtest(opts Options) Result {
	opts = opts.WithDefaults()
	ds := serveDataset(opts)
	k := 1024
	if m := ds.NumKeys() / 4; k > m && m >= 1 {
		k = m
	}
	cols, offered := flattenColumns(ds)
	numAsg := len(cols)
	cfg := core.Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: opts.Seed, K: k}

	refL1 := func() float64 {
		sketches := make([]*sketch.BottomK, numAsg)
		for b := range cols {
			sk := core.NewAssignmentSketcher(cfg, b)
			for i, key := range cols[b].keys {
				sk.Offer(key, cols[b].weights[i])
			}
			sketches[b] = sk.Sketch()
		}
		d, err := core.CombineDispersed(cfg, sketches)
		if err != nil {
			panic(err)
		}
		return d.RangeLSet(nil).Estimate(nil)
	}()

	connsSweep := []int{1, 4, 16, 64}
	if opts.Conns > 0 {
		connsSweep = []int{opts.Conns}
	}
	external := opts.Addr != ""
	if external && opts.Conns <= 0 {
		// One cell against an external server: its epoch advances per cell,
		// so sweeping would re-offer the same keys into later epochs.
		connsSweep = []int{4}
	}

	title := fmt.Sprintf("network load test, %d offers (%d keys × %d assignments) streamed over binary /ingest, k=%d, %d-offer chunks per request",
		offered, ds.NumKeys(), numAsg, k, loadChunk)
	if opts.Overload {
		title += fmt.Sprintf(" — OVERLOAD: server admits %d concurrent ingests, clients honor 429 Retry-After", overloadInflight)
	}
	t := Table{
		Title:   title,
		Columns: []string{"conns", "offers/s", "MB/s", "req_p50", "req_p95", "req_p99", "sheds(429)", "freeze", "identical"},
	}
	for _, conns := range connsSweep {
		t.AddRow(runLoadCell(opts, cfg, cols, offered, numAsg, conns, refL1)...)
	}
	return Result{Tables: []Table{t}}
}

// loadChunk is the per-request chunk size of the streamed partitions:
// large enough that request overhead is amortized, small enough that one
// stream is many requests over its keep-alive connection.
const loadChunk = 8192

// runLoadCell measures one connection-count cell and returns its table row.
func runLoadCell(opts Options, cfg core.Config, cols []ingestColumn, offered, numAsg, conns int, refL1 float64) []string {
	// Partition the stream round-robin across clients and pre-encode each
	// client's chunked request bodies; encoding cost belongs to the load
	// generator, not the measured server.
	chunks := make([][][]byte, conns)
	bodies := make([][]byte, conns)
	counts := make([]int, conns)
	n := 0
	for b := range cols {
		for i, key := range cols[b].keys {
			c := n % conns
			bodies[c] = server.AppendBinaryOffer(bodies[c], b, key, cols[b].weights[i])
			counts[c]++
			if counts[c]%loadChunk == 0 {
				chunks[c] = append(chunks[c], bodies[c])
				bodies[c] = nil
			}
			n++
		}
	}
	for c := range bodies {
		if len(bodies[c]) > 0 {
			chunks[c] = append(chunks[c], bodies[c])
		}
	}
	totalBytes := 0
	for c := range chunks {
		for _, chunk := range chunks[c] {
			totalBytes += len(chunk)
		}
	}

	base, shutdown := loadTarget(opts, cfg, numAsg)
	defer shutdown()
	verify := true
	if opts.Addr != "" {
		verify = healthzEpoch(base) == 0
	}

	var wg sync.WaitGroup
	errs := make([]error, conns)
	sheds := make([]int, conns)
	// One lock-free histogram shared by every client goroutine: the
	// client-observed per-request ingest latency, sheds included (a shed
	// round trip is latency the client paid).
	reqHist := &obs.Histogram{}
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := newLoadClient()
			rng := rand.New(rand.NewSource(int64(opts.Seed) + int64(c)))
			for _, chunk := range chunks[c] {
				for {
					rs := time.Now()
					resp, err := postChunk(client, base, chunk, opts.Overload)
					reqHist.Record(time.Since(rs))
					if err != nil {
						errs[c] = err
						return
					}
					resp.Body.Close()
					if resp.StatusCode == http.StatusOK {
						break
					}
					if resp.StatusCode != http.StatusTooManyRequests {
						errs[c] = fmt.Errorf("POST /ingest: status %d", resp.StatusCode)
						return
					}
					// Shed: honor Retry-After with full jitter (a fleet of
					// clients retrying in lockstep would just collide again).
					sheds[c]++
					after, err := strconv.Atoi(resp.Header.Get("Retry-After"))
					if err != nil || after < 1 {
						after = 1
					}
					time.Sleep(time.Duration(rng.Int63n(int64(time.Duration(after) * time.Second))))
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	totalSheds := 0
	for _, s := range sheds {
		totalSheds += s
	}
	for _, err := range errs {
		if err != nil {
			panic(fmt.Sprintf("loadtest: %v", err))
		}
	}

	freeze, identical := "-", "unverified"
	if verify {
		client := newLoadClient()
		fs := time.Now()
		resp, err := client.Post(base+"/freeze", "application/json", nil)
		if err != nil {
			panic(fmt.Sprintf("loadtest: freeze: %v", err))
		}
		resp.Body.Close()
		freeze = time.Since(fs).Round(time.Microsecond).String()
		qresp, err := client.Get(base + "/query?agg=L1")
		if err != nil {
			panic(fmt.Sprintf("loadtest: query: %v", err))
		}
		var out struct {
			Estimate float64 `json:"estimate"`
		}
		err = json.NewDecoder(qresp.Body).Decode(&out)
		qresp.Body.Close()
		if err != nil {
			panic(fmt.Sprintf("loadtest: decoding query response: %v", err))
		}
		identical = fmt.Sprintf("%v", out.Estimate == refL1)
	}

	row := []string{
		fmt.Sprintf("%d", conns),
		fsci(float64(offered) / elapsed.Seconds()),
		fmt.Sprintf("%.1f", float64(totalBytes)/(1<<20)/elapsed.Seconds()),
	}
	row = append(row, pctCols(reqHist)...)
	return append(row,
		fmt.Sprintf("%d", totalSheds),
		freeze,
		identical,
	)
}

// postChunk sends one pre-encoded chunk to /ingest. The normal mode posts
// the chunk as a single buffered body; overload mode streams it as a paced
// chunked upload so the handler holds its admission slot while parked on
// body reads (see the overloadPiece comment). A shed (429) aborts the
// stream mid-body — the server closes the connection under the client, the
// writer goroutine exits on the pipe error, and the retry reconnects.
func postChunk(client *http.Client, base string, chunk []byte, overload bool) (*http.Response, error) {
	if !overload {
		return client.Post(base+"/ingest", server.ContentTypeBinaryIngest, bytes.NewReader(chunk))
	}
	pr, pw := io.Pipe()
	go func() {
		for b := chunk; len(b) > 0; {
			n := overloadPiece
			if n > len(b) {
				n = len(b)
			}
			if _, err := pw.Write(b[:n]); err != nil {
				return // shed mid-stream: transport closed the body
			}
			b = b[n:]
			time.Sleep(overloadPace)
		}
		pw.Close()
	}()
	req, err := http.NewRequest("POST", base+"/ingest", pr)
	if err != nil {
		pr.Close()
		return nil, err
	}
	req.Header.Set("Content-Type", server.ContentTypeBinaryIngest)
	return client.Do(req)
}

// loadTarget returns the base URL to drive and its shutdown function:
// Options.Addr verbatim for an external server, otherwise a fresh
// in-process server listening on a real ephemeral TCP port.
func loadTarget(opts Options, cfg core.Config, numAsg int) (string, func()) {
	if opts.Addr != "" {
		return "http://" + opts.Addr, func() {}
	}
	maxInflight := 0
	if opts.Overload {
		maxInflight = overloadInflight
	}
	srv, err := server.New(server.Config{Sample: cfg, Assignments: numAsg, MaxInflight: maxInflight})
	if err != nil {
		panic(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(fmt.Sprintf("loadtest: %v", err))
	}
	httpSrv := &http.Server{Handler: srv}
	go func() { _ = httpSrv.Serve(ln) }()
	return "http://" + ln.Addr().String(), func() {
		httpSrv.Close()
		srv.Close()
	}
}

// healthzEpoch reads the target's current epoch; -1 on any failure.
func healthzEpoch(base string) int {
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		return -1
	}
	defer resp.Body.Close()
	var out struct {
		Epoch int `json:"epoch"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return -1
	}
	return out.Epoch
}
