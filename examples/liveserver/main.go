// Liveserver demonstrates the online sketch server end to end, in one
// process: it starts cws-serve's handler on a loopback listener, streams
// two assignments of network-flow traffic into it from concurrent clients,
// freezes an epoch mid-stream, queries the frozen snapshot while ingestion
// continues, and finally exports the served sketches as one segment (GET
// /sketches, the file cws-merge reads) and re-answers a query from the
// export alone — proving the server interoperates with the distributed
// combine workflow.
//
// Run with: go run ./examples/liveserver
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sync"

	"coordsample"
)

func main() {
	cfg := coordsample.Config{Family: coordsample.IPPS, Mode: coordsample.SharedSeed, Seed: 42, K: 512}
	srv, err := coordsample.NewServer(coordsample.ServerConfig{
		Sample:      cfg,
		Assignments: 2, // period 1 and period 2
	})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go http.Serve(ln, srv)
	base := "http://" + ln.Addr().String()
	fmt.Printf("live server on %s\n\n", base)

	// --- Epoch 1: two concurrent clients stream the first half of the day.
	streamTraffic(base, 0, 4000)
	freeze(base)
	fmt.Println("after epoch 1 (first half of the traffic):")
	query(base, "agg=sum&b=0", "   bytes, period 1")
	query(base, "agg=L1", "   traffic change Σ|w1−w2|")

	// --- Epoch 2: the second half arrives while the frozen snapshot keeps
	// answering queries (readers never block writers).
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		streamTraffic(base, 4000, 8000)
	}()
	query(base, "agg=jaccard", "   similarity (still epoch 1)")
	wg.Wait()
	freeze(base)
	fmt.Println("\nafter epoch 2 (all traffic, exact cumulative merge):")
	query(base, "agg=sum&b=0", "   bytes, period 1")
	serverL1 := query(base, "agg=L1", "   traffic change Σ|w1−w2|")
	query(base, "agg=sum&b=0&prefix=10.0.", "   bytes from 10.0.*, period 1")

	// --- Export the served sketches and combine them offline, exactly as
	// cws-merge would with files shipped from any other site.
	resp, err := http.Get(base + "/sketches")
	if err != nil {
		log.Fatal(err)
	}
	decoded, err := coordsample.DecodeSketches(resp.Body)
	resp.Body.Close()
	if err != nil {
		log.Fatal(err)
	}
	for _, d := range decoded {
		fmt.Printf("\nexported sketch: assignment %d, %d entries, fingerprint %#016x",
			d.Meta.Assignment, d.BottomK.Size(), d.Fingerprint())
	}
	offline, err := coordsample.CombineDecoded(decoded)
	if err != nil {
		log.Fatal(err)
	}
	offlineL1 := offline.RangeLSet(nil).Estimate(nil)
	if offlineL1 != serverL1 {
		log.Fatalf("offline combine L1 %v != server answer %v (must be bit-identical)", offlineL1, serverL1)
	}
	fmt.Printf("\noffline combine of the exports: L1 = %.6g — bit-identical to the server's answer: true\n", offlineL1)
}

// streamTraffic posts flows [lo, hi) in batches from two concurrent
// clients, one per period — the dispersed model over HTTP. Each key is
// offered at most once per assignment (the pre-aggregation contract).
func streamTraffic(base string, lo, hi int) {
	var wg sync.WaitGroup
	for period := 0; period < 2; period++ {
		wg.Add(1)
		go func(period int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100*period) + int64(lo)))
			batch := make([]coordsample.ServerOffer, 0, 256)
			flush := func() {
				if len(batch) == 0 {
					return
				}
				body, _ := json.Marshal(map[string]any{"offers": batch})
				resp, err := http.Post(base+"/offer", "application/json", bytes.NewReader(body))
				if err != nil {
					log.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					log.Fatalf("offer batch rejected: status %d", resp.StatusCode)
				}
				batch = batch[:0]
			}
			for i := lo; i < hi; i++ {
				src := fmt.Sprintf("10.%d.%d.%d", i%4, (i/64)%256, i%256)
				if rng.Float64() < 0.15 {
					continue // flow inactive in this period
				}
				batch = append(batch, coordsample.ServerOffer{
					Assignment: period,
					Key:        src,
					Weight:     math.Exp(rng.NormFloat64() * 2),
				})
				if len(batch) == cap(batch) {
					flush()
				}
			}
			flush()
		}(period)
	}
	wg.Wait()
}

func freeze(base string) {
	resp, err := http.Post(base+"/freeze", "application/json", nil)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("freeze failed: status %d: %v", resp.StatusCode, out)
	}
	fmt.Printf("froze epoch %v, serving entries per assignment: %v\n\n", out["epoch"], out["entries"])
}

func query(base, params, label string) float64 {
	resp, err := http.Get(base + "/query?" + params)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("query %s failed: status %d", params, resp.StatusCode)
	}
	var out struct {
		Label    string  `json:"label"`
		Estimate float64 `json:"estimate"`
		Epoch    int     `json:"epoch"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %s ≈ %.6g (epoch %d)\n", label, out.Label, out.Estimate, out.Epoch)
	return out.Estimate
}
