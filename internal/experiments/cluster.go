package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"time"

	"coordsample/internal/cluster"
	"coordsample/internal/core"
	"coordsample/internal/obs"
	"coordsample/internal/rank"
	"coordsample/internal/server"
	"coordsample/internal/shard"
	"coordsample/internal/sketch"
)

func init() {
	register(Experiment{
		ID:    "cluster",
		Paper: "not from the paper",
		Desc:  "scatter-gather cluster: partitioned ingest across in-process peers over real TCP, two-phase freeze, merged answers verified bit-identical to the offline pipeline, then one peer killed to measure graceful degradation",
		Run:   runCluster,
	})
}

// clusterPeer is one in-process cluster member on a real TCP port.
type clusterPeer struct {
	srv     *server.Server
	httpSrv *http.Server
	addr    string
}

func (p *clusterPeer) kill() {
	p.httpSrv.Close()
	p.srv.Close()
}

// runCluster measures the cluster serving layer end to end: N in-process
// cws-serve peers on real TCP ports, each owning its slice of the keyspace
// under the routing-hash partition, ingested concurrently with the stream
// routed to each key's owner. The scatter-gather router then runs a
// two-phase cluster freeze and answers /cluster/query; the "identical"
// column verifies the merged estimate bit-identical to the offline
// pipeline over the whole stream (the merge-lemma exactness claim). The
// last peer is then killed and the query repeated: the degraded answer
// must still be bit-identical to the offline pipeline over the surviving
// partitions' keys, with coverage (N-1)/N.
func runCluster(opts Options) Result {
	opts = opts.WithDefaults()
	numPeers := opts.Peers
	if numPeers < 2 {
		numPeers = 3
	}
	ds := serveDataset(opts)
	k := 1024
	if m := ds.NumKeys() / 4; k > m && m >= 1 {
		k = m
	}
	cols, offered := flattenColumns(ds)
	numAsg := len(cols)
	cfg := core.Config{Family: rank.IPPS, Mode: rank.SharedSeed, Seed: opts.Seed, K: k}

	// Offline references: the whole stream, and the stream minus the
	// killed peer's partition.
	offlineL1 := func(skipPeer int) float64 {
		sketches := make([]*sketch.BottomK, numAsg)
		for b := range cols {
			sk := core.NewAssignmentSketcher(cfg, b)
			for i, key := range cols[b].keys {
				if skipPeer >= 0 && shard.ShardOf(key, numPeers) == skipPeer {
					continue
				}
				sk.Offer(key, cols[b].weights[i])
			}
			sketches[b] = sk.Sketch()
		}
		d, err := core.CombineDispersed(cfg, sketches)
		if err != nil {
			panic(err)
		}
		return d.RangeLSet(nil).Estimate(nil)
	}
	refFull := offlineL1(-1)
	refSurvivors := offlineL1(numPeers - 1)

	// Start the peers, each guarding its partition, then the router.
	peers := make([]*clusterPeer, numPeers)
	addrs := make([]string, numPeers)
	for i := range peers {
		i := i
		srv, err := server.New(server.Config{
			Sample: cfg, Assignments: numAsg,
			OwnsKey: func(key string) bool { return shard.ShardOf(key, numPeers) == i },
		})
		if err != nil {
			panic(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			panic(fmt.Sprintf("cluster: %v", err))
		}
		httpSrv := &http.Server{Handler: srv}
		go func() { _ = httpSrv.Serve(ln) }()
		peers[i] = &clusterPeer{srv: srv, httpSrv: httpSrv, addr: ln.Addr().String()}
		addrs[i] = peers[i].addr
	}
	defer func() {
		for _, p := range peers {
			p.kill()
		}
	}()
	router, err := cluster.New(cluster.Config{Peers: addrs, Self: -1, Sample: cfg, Assignments: numAsg})
	if err != nil {
		panic(err)
	}
	defer router.Close()
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(fmt.Sprintf("cluster: %v", err))
	}
	routerSrv := &http.Server{Handler: router}
	go func() { _ = routerSrv.Serve(rln) }()
	defer routerSrv.Close()
	base := "http://" + rln.Addr().String()

	// Partitioned ingest: binary /ingest chunks routed to each key's
	// owner, one streaming client per peer, concurrently.
	bodies := make([][]byte, numPeers)
	counts := make([]int, numPeers)
	for b := range cols {
		for i, key := range cols[b].keys {
			p := shard.ShardOf(key, numPeers)
			bodies[p] = server.AppendBinaryOffer(bodies[p], b, key, cols[b].weights[i])
			counts[p]++
		}
	}
	start := time.Now()
	errCh := make(chan error, numPeers)
	for i := range peers {
		go func(i int) {
			client := newLoadClient()
			resp, err := client.Post("http://"+addrs[i]+"/ingest", server.ContentTypeBinaryIngest, bytes.NewReader(bodies[i]))
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("peer %d: /ingest status %d", i, resp.StatusCode)
				}
			}
			errCh <- err
		}(i)
	}
	for range peers {
		if err := <-errCh; err != nil {
			panic(fmt.Sprintf("cluster: %v", err))
		}
	}
	ingestElapsed := time.Since(start)

	// Two-phase cluster freeze, then the merged scatter-gather answer.
	fs := time.Now()
	freezeBody := mustPostJSON(base + "/cluster/freeze")
	freezeElapsed := time.Since(fs).Round(time.Microsecond)
	if freezeBody["published"] != true {
		panic(fmt.Sprintf("cluster: freeze not published: %v", freezeBody))
	}

	t := Table{
		Title: fmt.Sprintf("scatter-gather cluster, %d offers (%d keys × %d assignments) partitioned across %d peers, k=%d",
			offered, ds.NumKeys(), numAsg, numPeers, k),
		Columns: []string{"phase", "offers/s", "freeze", "q_p50", "q_p95", "q_p99", "reached", "coverage", "degraded", "identical"},
	}
	// Each phase's scatter-gather query latency distribution, from the
	// router's client side: repeated queries recorded into a histogram so
	// the BENCH row carries percentiles rather than one sample.
	const queryReps = 20
	queryPhase := func(ref float64) (map[string]any, []string, bool) {
		h := &obs.Histogram{}
		var q map[string]any
		identical := true
		for i := 0; i < queryReps; i++ {
			qs := time.Now()
			q = mustGetJSON(base + "/cluster/query?agg=L1")
			h.Record(time.Since(qs))
			identical = identical && q["estimate"].(float64) == ref
		}
		return q, pctCols(h), identical
	}
	q, pct, identical := queryPhase(refFull)
	row := []string{
		"full strength",
		fsci(float64(offered) / ingestElapsed.Seconds()),
		freezeElapsed.String(),
	}
	row = append(row, pct...)
	t.AddRow(append(row,
		fmt.Sprintf("%.0f/%d", q["reached"].(float64), numPeers),
		fmt.Sprintf("%.3f", q["coverage"].(float64)),
		yesNo(q["degraded"] == true),
		fmt.Sprintf("%v", identical),
	)...)

	// Kill the last peer and answer from the survivors: graceful
	// degradation, with the estimate exact over the covered partitions.
	peers[numPeers-1].kill()
	q, pct, identical = queryPhase(refSurvivors)
	row = []string{"1 peer killed", "-", "-"}
	row = append(row, pct...)
	t.AddRow(append(row,
		fmt.Sprintf("%.0f/%d", q["reached"].(float64), numPeers),
		fmt.Sprintf("%.3f", q["coverage"].(float64)),
		yesNo(q["degraded"] == true),
		fmt.Sprintf("%v", identical),
	)...)
	return Result{Tables: []Table{t}}
}

// yesNo renders a boolean without the literal strings true/false, which
// the CI smoke gates reserve for the identical columns.
func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

func mustGetJSON(url string) map[string]any {
	resp, err := http.Get(url)
	if err != nil {
		panic(fmt.Sprintf("cluster: GET %s: %v", url, err))
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		panic(fmt.Sprintf("cluster: GET %s: %v", url, err))
	}
	if resp.StatusCode != http.StatusOK {
		panic(fmt.Sprintf("cluster: GET %s: status %d: %v", url, resp.StatusCode, out))
	}
	return out
}

func mustPostJSON(url string) map[string]any {
	resp, err := http.Post(url, "application/json", nil)
	if err != nil {
		panic(fmt.Sprintf("cluster: POST %s: %v", url, err))
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		panic(fmt.Sprintf("cluster: POST %s: %v", url, err))
	}
	if resp.StatusCode != http.StatusOK {
		panic(fmt.Sprintf("cluster: POST %s: status %d: %v", url, resp.StatusCode, out))
	}
	return out
}
