package main

import (
	"fmt"
	"path/filepath"
	"strconv"
	"strings"

	"hare"
	"hare/internal/gen"
)

// The datasets are fixtures, like files on a disk: their generator seeds
// are the suite's own and do not follow --seed, which shapes only the
// operation lists. A run's cost therefore does not depend on the seed
// through the graph, only through the order and δ of its requests.

// sizes holds every count that differs between a full run and the smoke
// test's toy run; shapes (kinds, mixes, topologies) never differ.
type sizes struct {
	reddit      string // batch-exact input, "name[:scale]" as hared -gen takes it
	wiki        string // hub-skewed serving dataset
	wikiCluster string // the cluster's replica of it
	college     string // small dataset: sig ensembles, most hot keys
	liveBatch   int    // edges per ingest batch
	liveEvery   int    // milliseconds between ingest batches
	livePrefill int    // batches ingested during set-up
	setups      int    // cap on how often set-up is repeated for setup_s
}

var fullSizes = sizes{
	reddit:      "redditcomments:0.5",
	wiki:        "wikitalk",
	wikiCluster: "wikitalk:0.5",
	college:     "collegemsg",
	liveBatch:   1000,
	liveEvery:   100,
	livePrefill: 100,
	setups:      9,
}

var toySizes = sizes{
	reddit:      "collegemsg:0.1",
	wiki:        "collegemsg:0.1",
	wikiCluster: "collegemsg:0.1",
	college:     "collegemsg:0.1",
	liveBatch:   50,
	liveEvery:   20,
	livePrefill: 10,
	setups:      2,
}

// dataset is one fixture: the generated graph in memory, for reference
// answers, and on disk in the form the workload loads it from.
type dataset struct {
	spec string
	g    *hare.Graph
	text string // path of the text edge list ("" if not written)
	snap string // path of the .hare snapshot ("" if not written)
}

// generate builds the dataset named by a "name[:scale]" spec.
func generate(spec string) (*dataset, error) {
	name, scaleStr, scaled := strings.Cut(spec, ":")
	cfg, err := gen.DatasetByName(name)
	if err != nil {
		return nil, err
	}
	if scaled {
		scale, err := strconv.ParseFloat(scaleStr, 64)
		if err != nil || scale <= 0 {
			return nil, fmt.Errorf("dataset %q: bad scale", spec)
		}
		cfg = gen.Scaled(cfg, scale)
	}
	g, err := gen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	return &dataset{spec: spec, g: g}, nil
}

// file names a fixture file in the run's work directory.
func (e *env) file(d *dataset, ext string) string {
	return filepath.Join(e.workDir, strings.NewReplacer(":", "_", ".", "_").Replace(d.spec)+ext)
}

func (e *env) writeText(d *dataset) error {
	d.text = e.file(d, ".txt")
	return hare.SaveFile(d.text, d.g)
}

// writeSnapshot writes a .hare snapshot only: with no text sibling next
// to it, hared's loader can take no other branch.
func (e *env) writeSnapshot(d *dataset) error {
	d.snap = e.file(d, ".hare")
	return hare.SaveSnapshot(d.snap, d.g)
}

// ingestBodies renders the dataset's time-ordered edges as /v1/ingest
// request bodies of batch edges each.
func ingestBodies(d *dataset, batch int) [][]byte {
	edges := d.g.Edges()
	var bodies [][]byte
	for lo := 0; lo < len(edges); lo += batch {
		hi := min(lo+batch, len(edges))
		var sb strings.Builder
		for _, ed := range edges[lo:hi] {
			fmt.Fprintf(&sb, "%d %d %d\n", ed.From, ed.To, ed.Time)
		}
		bodies = append(bodies, []byte(sb.String()))
	}
	return bodies
}
