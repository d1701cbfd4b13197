package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"spdier/internal/experiment"
	"spdier/internal/fabric"
	"spdier/internal/webpage"
)

// fabricWorkerEnv turns this binary into a fabric worker process.
const fabricWorkerEnv = "SPDYSIM_FABRIC_WORKER"

// pltFolder is the registered streaming accumulator the scale
// experiment folds into; it is the one the fabric can ship.
const pltFolder = "plt"

func newPLTFolder() experiment.Folder {
	f, ok := experiment.NewFolder(pltFolder)
	if !ok {
		panic("bench: folder " + pltFolder + " is not registered")
	}
	return f
}

// fixedCostUS is experiment.Run on a one-object page: what a run costs
// before any page content — loop, network, radio, recorder, sampler.
func fixedCostUS(c condition, seed uint64) float64 {
	page := &webpage.Page{Name: "one-object", Category: "synthetic", Objects: []*webpage.Object{{
		ID: 0, Kind: webpage.KindHTML, Size: 1 << 10, Domain: "one.example", Path: "/", Parent: -1,
	}}}
	opts := c.opts
	opts.Seed = seed
	opts.Pages = []*webpage.Page{page}
	opts.LeanProbe = true
	return medianOf(func() float64 {
		t0 := time.Now()
		experiment.Run(opts)
		return float64(time.Since(t0)) / 1e3
	})
}

// codecCosts prices the stats layer's shard codec and merge.
type codecCosts struct {
	encodeUS, decodeUS, mergeUS float64
	shardBytes                  int
}

// statsCodec encodes, decodes and merges the folder the traced runs
// filled, the way a fabric shard travels.
func statsCodec(tr *tracer, f experiment.Folder) (codecCosts, error) {
	const reps = 200
	var c codecCosts
	var data []byte
	var err error

	id := tr.begin("stats.encode")
	t0 := time.Now()
	for i := 0; i < reps && err == nil; i++ {
		data, err = experiment.EncodeFolder(f)
	}
	c.encodeUS = float64(time.Since(t0)) / 1e3 / reps
	tr.end(id)
	if err != nil {
		return c, err
	}
	c.shardBytes = len(data)

	var dec experiment.Folder
	id = tr.begin("stats.decode")
	t0 = time.Now()
	for i := 0; i < reps && err == nil; i++ {
		dec, err = experiment.DecodeFolder(pltFolder, data)
	}
	c.decodeUS = float64(time.Since(t0)) / 1e3 / reps
	tr.end(id)
	if err != nil {
		return c, err
	}

	into := make([]experiment.Folder, reps)
	for i := range into {
		into[i] = newPLTFolder()
	}
	id = tr.begin("stats.merge")
	t0 = time.Now()
	for _, f := range into {
		f.Merge(dec)
	}
	c.mergeUS = float64(time.Since(t0)) / 1e3 / reps
	tr.end(id)
	return c, nil
}

// fabricShardRuns sizes the shard the fabric probe ships.
const fabricShardRuns = 4

// fabricCosts is what shipping one shard to a worker process cost.
type fabricCosts struct {
	overheadMS float64
	stats      fabric.Stats
}

// fabricProbe computes one shard of c in a worker process — this binary
// re-executed under fabricWorkerEnv — and again in-process, and checks
// that the two accumulators are byte-identical.
func fabricProbe(tr *tracer, c condition, seed uint64, runs int) (fabricCosts, error) {
	var fc fabricCosts
	self, err := os.Executable()
	if err != nil {
		return fc, err
	}
	coord, err := fabric.NewCoordinator(fabric.Config{
		Workers:   1,
		WorkerCmd: []string{self},
		WorkerEnv: []string{fabricWorkerEnv + "=1"},
	})
	if err != nil {
		return fc, err
	}
	defer coord.Close()
	h := experiment.Harness{Runs: runs, Seed: seed}
	// The overhead is the difference of two times a hundred times its
	// size, so the in-process shard is timed on both sides of the remote
	// one and the two are averaged.
	fillLocal := func() (experiment.Folder, time.Duration) {
		f := newPLTFolder()
		t0 := time.Now()
		experiment.NewRunner(1).FillShard(h, c.opts, 0, f, nil)
		return f, time.Since(t0)
	}
	local, before := fillLocal()

	id := tr.begin("fabric.shard")
	t0 := time.Now()
	remote := coord.ExecuteShard(h, c.opts, 0, newPLTFolder)
	remoteTime := time.Since(t0)
	tr.end(id)
	fc.stats = coord.Stats()
	if remote == nil {
		return fc, fmt.Errorf("the fabric declined the shard")
	}

	_, after := fillLocal()
	fc.overheadMS = float64(remoteTime-(before+after)/2) / 1e6

	rb, err := experiment.EncodeFolder(remote)
	if err != nil {
		return fc, err
	}
	lb, err := experiment.EncodeFolder(local)
	if err != nil {
		return fc, err
	}
	if !bytes.Equal(rb, lb) {
		return fc, fmt.Errorf("the worker's shard differs from the in-process shard")
	}
	return fc, nil
}
