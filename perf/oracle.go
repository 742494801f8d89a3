package main

import (
	"encoding/json"
	"math"

	"st4ml/internal/datagen"
	"st4ml/internal/selection"
	"st4ml/internal/stdata"
)

// eventOracle answers windows by brute force over the generated records,
// bucketed on a uniform grid over the generator's extent and year so a
// window scans only the buckets it overlaps. It shares no code with the
// storage, index or serving paths it checks; only the box intersection
// predicate, which defines what a match is, is the program's.
type eventOracle struct {
	buckets [][]stdata.EventRec
}

const oracleGrid = 32

func gridCell(v, lo, hi float64) int {
	c := int(math.Floor((v - lo) / (hi - lo) * oracleGrid))
	return min(max(c, 0), oracleGrid-1)
}

func eventCell(x, y float64, t int64) (int, int, int) {
	ext, span := datagen.NYCExtent, datagen.Year2013
	return gridCell(x, ext.MinX, ext.MaxX), gridCell(y, ext.MinY, ext.MaxY),
		gridCell(float64(t), float64(span.Start), float64(span.End))
}

func newEventOracle(recs []stdata.EventRec) *eventOracle {
	o := &eventOracle{buckets: make([][]stdata.EventRec, oracleGrid*oracleGrid*oracleGrid)}
	for _, r := range recs {
		o.add(r)
	}
	return o
}

func (o *eventOracle) add(r stdata.EventRec) {
	cx, cy, ct := eventCell(r.Loc.X, r.Loc.Y, r.Time)
	k := (ct*oracleGrid+cy)*oracleGrid + cx
	o.buckets[k] = append(o.buckets[k], r)
}

// answer returns the expected match count and, when withRecords is set,
// the fingerprint of the matches' JSON.
func (o *eventOracle) answer(w selection.Window, withRecords bool) answer {
	box := w.Box()
	x0, y0, t0 := eventCell(w.Space.MinX, w.Space.MinY, w.Time.Start)
	x1, y1, t1 := eventCell(w.Space.MaxX, w.Space.MaxY, w.Time.End)
	var a answer
	for ct := t0; ct <= t1; ct++ {
		for cy := y0; cy <= y1; cy++ {
			for cx := x0; cx <= x1; cx++ {
				for _, r := range o.buckets[(ct*oracleGrid+cy)*oracleGrid+cx] {
					if !r.Box().Intersects(box) {
						continue
					}
					a.count++
					if withRecords {
						b, _ := json.Marshal(r) // numbers and a string: cannot fail
						a.sum += recordHash(b)
					}
				}
			}
		}
	}
	return a
}

// fingerprint folds a reply's records the way answer folds the oracle's.
func fingerprint(recs []json.RawMessage) uint64 {
	var sum uint64
	for _, r := range recs {
		sum += recordHash(r)
	}
	return sum
}
