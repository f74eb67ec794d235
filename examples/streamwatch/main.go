// Stream watch: exact online motif counting over a live edge stream — the
// "frequently updated dynamic systems" the paper's introduction motivates.
// A transaction stream is replayed in batches through a sliding-window
// hare.StreamCounter (parallel ingest, per-worker counters merged — the
// HARE discipline applied online); the detector watches the *windowed*
// temporal-cycle count (M26, the laundering signature) and raises an alarm
// during an injected laundering burst. Sliding-window counts make the
// detector trivially self-resetting: old cycles retire on their own instead
// of having to be differenced away from cumulative totals.
//
//	go run ./examples/streamwatch
package main

import (
	"fmt"
	"log"
	"math/rand"
	"sort"
	"time"

	"hare"
	"hare/internal/gen"
)

const (
	delta      = 1800 // motif window: 30 minutes
	bucketSize = 50_000
	burstStart = 1_000_000 // injected burst covers this time range
	burstEnd   = 1_100_000
)

func main() {
	// Background transaction stream.
	cfg := gen.Config{
		Name: "txn-stream", Nodes: 3000, Edges: 90_000, TimeSpan: 2_000_000,
		ZipfS: 1.6, ReplyProb: 0.05, RepeatProb: 0.05, TriadProb: 0,
		BurstLen: 3, Seed: 17,
	}
	base, err := gen.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	// Payment networks are largely hierarchical (consumers pay merchants,
	// merchants pay processors): orient background transfers up the ID
	// order, which makes directed cycles — the laundering signature —
	// organically impossible. Only the injected rings can close cycles.
	baseEdges := base.Edges()
	for i, e := range baseEdges {
		if e.From > e.To {
			baseEdges[i].From, baseEdges[i].To = e.To, e.From
		}
	}

	// Inject a laundering burst: rapid 3-cycles among a small clique inside
	// a known time range.
	r := rand.New(rand.NewSource(5))
	edges := baseEdges
	for i := 0; i < 150; i++ {
		a := hare.NodeID(cfg.Nodes + r.Intn(8))
		b := hare.NodeID(cfg.Nodes + r.Intn(8))
		c := hare.NodeID(cfg.Nodes + r.Intn(8))
		if a == b || b == c || a == c {
			continue
		}
		t0 := burstStart + r.Int63n(burstEnd-burstStart)
		edges = append(edges,
			hare.Edge{From: a, To: b, Time: t0},
			hare.Edge{From: b, To: c, Time: t0 + r.Int63n(300)},
			hare.Edge{From: c, To: a, Time: t0 + 400 + r.Int63n(600)},
		)
	}
	sort.SliceStable(edges, func(i, j int) bool { return edges[i].Time < edges[j].Time })

	sc, err := hare.NewStreamCounter(hare.StreamOptions{
		Delta: delta, Mode: hare.StreamSliding, Workers: 4,
	})
	if err != nil {
		log.Fatal(err)
	}
	m26 := hare.MustLabel("M26")

	fmt.Printf("replaying %d transactions through the sliding-window counter (δ=%ds, batched ingest)...\n\n", len(edges), delta)
	fmt.Printf("%14s %12s %14s %10s\n", "time bucket", "edges", "cycles in δ", "status")

	start := time.Now()
	alarms := 0
	alarmInBurst := 0
	var rates []float64

	// Replay bucket by bucket: each time bucket is one AddBatch call, then
	// one sliding-window reading — exactly how a dashboard would poll.
	nextBucket := edges[0].Time + bucketSize
	lo := 0
	for lo < len(edges) {
		hi := lo
		for hi < len(edges) && edges[hi].Time < nextBucket {
			hi++
		}
		if err := sc.AddBatch(edges[lo:hi]); err != nil {
			log.Fatal(err)
		}
		if hi > lo { // skip empty buckets: no reading to take
			w, err := sc.WindowMatrix()
			if err != nil {
				log.Fatal(err)
			}
			rate := float64(w.At(m26))
			status := ""
			// Alarm when the in-window count exceeds 4× the trailing median
			// plus one. The window gauge is an instantaneous reading (only
			// rings whose first edge is still within δ count), so its
			// baseline sits at zero on this structurally cycle-free
			// background and even a couple of live rings is a strong signal.
			if med := median(rates); len(rates) >= 5 && rate > 4*med+1 {
				status = "ALARM: cycle burst"
				alarms++
				if nextBucket-bucketSize >= burstStart-delta && nextBucket <= burstEnd+2*delta {
					alarmInBurst++
				}
			}
			fmt.Printf("%14d %12d %14d %10s\n", nextBucket, hi-lo, w.At(m26), status)
			rates = append(rates, rate)
		}
		lo = hi
		nextBucket += bucketSize
	}
	elapsed := time.Since(start)

	final := sc.Matrix()
	fmt.Printf("\nprocessed %d edges in %v (%.0f edges/s), %d total motifs\n",
		sc.Edges(), elapsed, float64(sc.Edges())/elapsed.Seconds(), final.Total())
	fmt.Printf("alarms raised: %d (%d inside the injected burst window)\n", alarms, alarmInBurst)

	// Verify the online result against a batch recount.
	batch, err := hare.Count(hare.FromEdges(edges), delta)
	if err != nil {
		log.Fatal(err)
	}
	if !final.Equal(&batch.Matrix) {
		log.Fatalf("online and batch counts disagree: %v", final.Diff(&batch.Matrix))
	}
	fmt.Println("online counts verified exactly against batch HARE recount")
	if alarmInBurst == 0 {
		log.Fatal("detector missed the injected burst")
	}
	// The stream has been quiet since the burst: draining the window must
	// leave no live cycles.
	if err := sc.Advance(edges[len(edges)-1].Time + 10*delta); err != nil {
		log.Fatal(err)
	}
	w, err := sc.WindowMatrix()
	if err != nil {
		log.Fatal(err)
	}
	if w.Total() != 0 {
		log.Fatalf("drained window still holds %d instances", w.Total())
	}
	fmt.Println("window drained cleanly after the stream went quiet")
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}
