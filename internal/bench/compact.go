package bench

import (
	"fmt"
	"path/filepath"
	"time"

	"st4ml/internal/datagen"
	"st4ml/internal/engine"
	"st4ml/internal/partition"
	"st4ml/internal/selection"
	"st4ml/internal/stdata"
	"st4ml/internal/storage"
)

// FigCompactRow is one point of the delta-layer experiment: the same event
// corpus queried through three physical states of the same logical store —
// rebuilt in one ingest ("rebuild"), half-ingested with the other half
// streamed in as delta files ("deltas"), and after the compactor folded
// those deltas back into the base ("compacted"). Selected counts must
// match across the three (merge-on-read is exact); the delta columns show
// the read amplification deltas cost and compaction removes.
type FigCompactRow struct {
	Stage         string  `json:"stage"` // "rebuild" | "deltas" | "compacted"
	Frac          float64 `json:"frac"`
	WallMs        float64 `json:"wall_ms"`
	Selected      int64   `json:"selected"`
	DeltasRead    int64   `json:"deltas_read"`
	DeltaRecords  int64   `json:"delta_records"`
	BlocksScanned int64   `json:"blocks_scanned"`
	BlocksPruned  int64   `json:"blocks_pruned"`
}

// CompactSummary reports the write side of the experiment: streaming
// append throughput and the one compaction pass that re-established the
// rebuilt layout.
type CompactSummary struct {
	AppendBatches       int     `json:"append_batches"`
	AppendRecords       int64   `json:"append_records"`
	AppendWallMs        float64 `json:"append_wall_ms"`
	CompactWallMs       float64 `json:"compact_wall_ms"`
	PartitionsCompacted int     `json:"partitions_compacted"`
	DeltasMerged        int     `json:"deltas_merged"`
	FilesRemoved        int     `json:"files_removed"`
	Generation          int64   `json:"generation"`
}

// CompactExp builds two stores under workdir — a full one-shot ingest and
// a half ingest that receives the other half through AppendDelta batches —
// measures pruned selections against rebuild/deltas/compacted states, and
// verifies the three agree on every window.
func CompactExp(env *Env, workdir string, fracs []float64, queriesPerFrac int, batches int) ([]FigCompactRow, CompactSummary, error) {
	if batches <= 0 {
		batches = 8
	}
	sum := CompactSummary{}
	opts := selection.IngestOptions{Name: "nyc", SampleFrac: 0.05, Seed: 1, BlockRecords: 128}
	planner := partition.TSTR{GT: 12, GS: 8}

	rebuildDir := filepath.Join(workdir, "compact-rebuild")
	r := engine.Parallelize(env.Ctx, env.Events, 0)
	if _, err := selection.Ingest(r, rebuildDir, stdata.EventRecC, stdata.EventRec.Box, planner, opts); err != nil {
		return nil, sum, err
	}

	deltaDir := filepath.Join(workdir, "compact-delta")
	half := len(env.Events) / 2
	r = engine.Parallelize(env.Ctx, env.Events[:half], 0)
	if _, err := selection.Ingest(r, deltaDir, stdata.EventRecC, stdata.EventRec.Box, planner, opts); err != nil {
		return nil, sum, err
	}
	rest := env.Events[half:]
	per := (len(rest) + batches - 1) / batches
	t0 := time.Now()
	for b := 0; b < batches && b*per < len(rest); b++ {
		lo, hi := b*per, (b+1)*per
		if hi > len(rest) {
			hi = len(rest)
		}
		_, err := storage.AppendDelta(deltaDir, stdata.EventRecC, rest[lo:hi], stdata.EventRec.Box,
			storage.AppendOptions{BatchID: fmt.Sprintf("bench-%d", b)})
		if err != nil {
			return nil, sum, err
		}
		sum.AppendBatches++
		sum.AppendRecords += int64(hi - lo)
	}
	sum.AppendWallMs = float64(time.Since(t0).Microseconds()) / 1000

	sel := selection.New(env.Ctx, stdata.EventRecC, stdata.EventRec.Box, nil,
		selection.Config{Index: true})
	measure := func(stage, dir string, frac float64, windows []selection.Window) (FigCompactRow, error) {
		row := FigCompactRow{Stage: stage, Frac: frac}
		for _, w := range windows {
			q0 := time.Now()
			_, st, err := sel.SelectPruned(dir, w)
			if err != nil {
				return row, err
			}
			row.WallMs += float64(time.Since(q0).Microseconds()) / 1000
			row.Selected += st.SelectedRecords
			row.DeltasRead += st.DeltasRead
			row.DeltaRecords += st.DeltaRecords
			row.BlocksScanned += st.BlocksScanned
			row.BlocksPruned += st.BlocksPruned
		}
		return row, nil
	}

	var rows []FigCompactRow
	// Stage 1+2: rebuild vs base+deltas, same windows, counts must agree.
	for _, frac := range fracs {
		windows := RandomWindows(datagen.NYCExtent, datagen.Year2013, frac,
			queriesPerFrac, int64(frac*1000)+29)
		rb, err := measure("rebuild", rebuildDir, frac, windows)
		if err != nil {
			return nil, sum, err
		}
		dl, err := measure("deltas", deltaDir, frac, windows)
		if err != nil {
			return nil, sum, err
		}
		if rb.Selected != dl.Selected {
			return nil, sum, fmt.Errorf("bench: compact: frac %v: deltas selected %d, rebuild %d",
				frac, dl.Selected, rb.Selected)
		}
		rows = append(rows, rb, dl)
	}

	// Compact everything and re-measure: delta reads must drop to zero.
	t0 = time.Now()
	cst, err := storage.Compact(deltaDir, stdata.EventRecC, stdata.EventRec.Box,
		storage.CompactOptions{MinDeltas: 1, GCGrace: 0})
	if err != nil {
		return nil, sum, err
	}
	sum.CompactWallMs = float64(time.Since(t0).Microseconds()) / 1000
	sum.PartitionsCompacted = cst.PartitionsCompacted
	sum.DeltasMerged = cst.DeltasMerged
	sum.FilesRemoved = cst.FilesRemoved
	sum.Generation = cst.Generation
	for _, frac := range fracs {
		windows := RandomWindows(datagen.NYCExtent, datagen.Year2013, frac,
			queriesPerFrac, int64(frac*1000)+29)
		cp, err := measure("compacted", deltaDir, frac, windows)
		if err != nil {
			return nil, sum, err
		}
		var want int64
		for _, r := range rows {
			if r.Stage == "rebuild" && r.Frac == frac {
				want = r.Selected
			}
		}
		if cp.Selected != want {
			return nil, sum, fmt.Errorf("bench: compact: frac %v: compacted selected %d, rebuild %d",
				frac, cp.Selected, want)
		}
		rows = append(rows, cp)
	}
	return rows, sum, nil
}

// FigCompactTable formats the query-side rows.
func FigCompactTable(rows []FigCompactRow) *Table {
	t := NewTable("Compact: rebuild vs base+deltas vs compacted selection",
		"stage", "range", "wall_ms", "selected",
		"deltas_read", "delta_records", "blk_scan", "blk_prune")
	for _, r := range rows {
		t.Add(r.Stage, r.Frac, r.WallMs, r.Selected,
			r.DeltasRead, r.DeltaRecords, r.BlocksScanned, r.BlocksPruned)
	}
	return t
}

// CompactSummaryTable formats the write-side summary.
func CompactSummaryTable(s CompactSummary) *Table {
	t := NewTable("Compact: streaming append + one compaction pass",
		"batches", "records", "append_ms", "compact_ms",
		"parts", "deltas", "gc_files", "gen")
	t.Add(s.AppendBatches, s.AppendRecords, s.AppendWallMs, s.CompactWallMs,
		s.PartitionsCompacted, s.DeltasMerged, s.FilesRemoved, s.Generation)
	return t
}
