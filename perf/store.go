package main

import (
	"hash/fnv"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"st4ml/internal/codec"
	"st4ml/internal/datagen"
	"st4ml/internal/engine"
	"st4ml/internal/geom"
	"st4ml/internal/selection"
	"st4ml/internal/stdata"
	"st4ml/internal/storage"
	"st4ml/internal/tempo"
)

// The serving stores use stload's default layout: T-STR with 16 time
// slices and 8 spatial cells, 128 partitions.
const (
	stloadGT = 16
	stloadGS = 8
)

// ingestEvents writes recs as an NYC-schema dataset at dir in stload's
// default layout and returns its metadata and the Schema.Ingest time. The
// partitioner's sampling seed is the city's, not the workload's: the seed
// varies the events, not how the program lays them out.
func ingestEvents(ctx *engine.Context, recs []stdata.EventRec, dir string) (*storage.Metadata, time.Duration, error) {
	sch, _ := stdata.Lookup("nyc")
	t0 := time.Now()
	meta, err := sch.Ingest(ctx, recs, dir, sch.DefaultPlanner(stloadGT, stloadGS),
		selection.IngestOptions{Name: "nyc", SampleFrac: 0.02, Seed: citySeed})
	return meta, time.Since(t0), err
}

// randomWindows places n windows uniformly inside extent × span, each
// covering frac of every axis.
func randomWindows(rng *rand.Rand, extent geom.MBR, span tempo.Duration, frac float64, n int) []selection.Window {
	w, h := extent.Width()*frac, extent.Height()*frac
	tspan := int64(float64(span.Seconds()) * frac)
	out := make([]selection.Window, n)
	for i := range out {
		x := extent.MinX + rng.Float64()*(extent.Width()-w)
		y := extent.MinY + rng.Float64()*(extent.Height()-h)
		t := span.Start + rng.Int63n(max(1, span.Seconds()-tspan))
		out[i] = selection.Window{Space: geom.Box(x, y, x+w, y+h), Time: tempo.New(t, t+tspan)}
	}
	return out
}

// stratifiedWindows places nx×ny windows, each covering frac of every
// axis: one in each cell of an nx×ny grid over the positions a window can
// take, at a uniform point within its cell, and at a time drawn from its
// own slice of the year (slices shuffled across cells). Every seed then
// covers dense and sparse areas alike, so a pool's mix of heavy and light
// windows stays the same from seed to seed.
func stratifiedWindows(rng *rand.Rand, extent geom.MBR, span tempo.Duration, frac float64, nx, ny int) []selection.Window {
	w, h := extent.Width()*frac, extent.Height()*frac
	tspan := int64(float64(span.Seconds()) * frac)
	cw, ch := (extent.Width()-w)/float64(nx), (extent.Height()-h)/float64(ny)
	slices := rng.Perm(nx * ny)
	slot := float64(max(1, span.Seconds()-tspan)) / float64(nx*ny)
	var out []selection.Window
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			x := extent.MinX + (float64(i)+rng.Float64())*cw
			y := extent.MinY + (float64(j)+rng.Float64())*ch
			t := span.Start + int64((float64(slices[len(out)])+rng.Float64())*slot)
			out = append(out, selection.Window{Space: geom.Box(x, y, x+w, y+h), Time: tempo.New(t, t+tspan)})
		}
	}
	return out
}

// answer is an oracle's expected reply to one window: the match count and
// an order-independent fingerprint of the matched records' JSON.
type answer struct {
	count int64
	sum   uint64
}

func recordHash(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// citySeed fixes the generated cities: where the hot spots are and when the
// rush hours fall. A city does not move between runs; the workload seed
// draws the events and trips in it, so runs on different seeds measure the
// same system on different inputs instead of on different cities.
const citySeed = 1

// nycEvents generates n NYC-like events for a seed: the city's events,
// each moved by Gaussian noise (about 1 km, 1 h) drawn from the seed, kept
// inside the extent and year, on the 1e-6 degree grid GPS feeds carry.
func nycEvents(n int, seed int64) []stdata.EventRec {
	recs := datagen.NYC(n, citySeed)
	rng := rand.New(rand.NewSource(seed))
	ext, year := datagen.NYCExtent, datagen.Year2013
	for i := range recs {
		r := &recs[i]
		r.Loc.X = gpsGrid(math.Min(ext.MaxX, math.Max(ext.MinX, r.Loc.X+rng.NormFloat64()*0.01)))
		r.Loc.Y = gpsGrid(math.Min(ext.MaxY, math.Max(ext.MinY, r.Loc.Y+rng.NormFloat64()*0.01)))
		r.Time = min(year.End, max(year.Start, r.Time+int64(rng.NormFloat64()*3600)))
	}
	return recs
}

func gpsGrid(v float64) float64 { return math.Round(v*1e6) / 1e6 }

// portoTrips generates n Porto-like trajectories for a seed: the paper's
// enlargement recipe (copies with 20 m and 2 min Gaussian noise) applied,
// with the seed's noise, to the city's trips.
func portoTrips(n int, seed int64) []stdata.TrajRec {
	return datagen.Enlarge(datagen.Porto(n/4+1, citySeed), 4, 20, 120, seed)[:n]
}

// userBytes is the row-encoded size of recs: the bytes a user hands the
// program, against which write and space amplification are measured.
func userBytes[T any](c codec.Codec[T], recs []T) int64 {
	var n int64
	for _, r := range recs {
		n += int64(len(codec.Marshal(c, r)))
	}
	return n
}

// dirBytes sums the sizes of the regular files under dir: what an ingest
// wrote.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// liveBytes sums the files the dataset's metadata and manifest reference:
// base partitions, live deltas and the two index files.
func liveBytes(dir string) (int64, error) {
	meta, err := storage.ReadMetadata(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for i := 0; i < meta.NumPartitions(); i++ {
		n += meta.PartitionBytes(i)
	}
	for _, f := range []string{storage.MetadataFile, storage.ManifestFile} {
		if info, err := os.Stat(filepath.Join(dir, f)); err == nil {
			n += info.Size()
		}
	}
	return n, nil
}
