package storage

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"st4ml/internal/codec"
	"st4ml/internal/geom"
	"st4ml/internal/index"
)

// writeFuzzSeed produces the bytes of a small partition file of the given
// format version plus its metadata, shared by the fuzz targets and the
// byte-flip tests.
func writeFuzzSeed(t testing.TB, version int, compress bool, blockRecords int) ([]byte, *Metadata, []rec) {
	t.Helper()
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(99))
	parts := makeParts(rng, 1, 50)
	meta, err := writeFixture(dir, recC, parts, recBox, fixtureOptions{
		Name: "fuzz", Version: version, Compress: compress, BlockRecords: blockRecords,
	})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, meta.Partitions[0].File))
	if err != nil {
		t.Fatal(err)
	}
	return raw, meta, parts[0]
}

// goldenRec mirrors the wire form of the NYC event schema (stdata.EventRec:
// id, point, time, string attribute) the committed golden datasets hold,
// so this package's tests can decode their part files.
type goldenRec struct {
	ID int64
	P  geom.Point
	T  int64
	S  string
}

var goldenRecC = codec.Codec[goldenRec]{
	Enc: func(w *codec.Writer, v goldenRec) {
		w.PutVarint(v.ID)
		codec.PointC.Enc(w, v.P)
		w.PutVarint(v.T)
		w.PutString(v.S)
	},
	Dec: func(r *codec.Reader) goldenRec {
		return goldenRec{ID: r.Varint(), P: codec.PointC.Dec(r), T: r.Varint(), S: r.String()}
	},
}

// goldenV2Part returns the bytes of part file i of the committed v2 golden
// dataset (gzip blocks of 16 records), metadata describing it as the sole
// partition of a dataset, and its records.
func goldenV2Part(t testing.TB, i int) ([]byte, *Metadata, []goldenRec) {
	t.Helper()
	const dir = "testdata/v2-golden"
	golden, err := ReadMetadata(dir)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ReadPartition(dir, golden, i, goldenRecC)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, golden.Partitions[i].File))
	if err != nil {
		t.Fatal(err)
	}
	pm := golden.Partitions[i]
	pm.File = partitionFileName(0)
	meta := &Metadata{
		Name: golden.Name, Compressed: golden.Compressed, Framed: golden.Framed,
		Version: golden.Version, BlockRecords: golden.BlockRecords,
		TotalCount: pm.Count, Partitions: []PartitionMeta{pm},
	}
	return raw, meta, want
}

// readBytesAsPartition writes data as partition 0 of a scratch dataset
// carrying meta's shape and reads it back through the pruned reader.
func readBytesAsPartition[T any](
	t testing.TB, meta *Metadata, c codec.Codec[T], data []byte, windows []index.Box,
) ([]T, error) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, meta.Partitions[0].File), data, 0o644); err != nil {
		t.Fatal(err)
	}
	out, _, err := ReadPartitionPruned(dir, meta, 0, c, windows)
	return out, err
}

// assertEveryFlipDetected flips every byte of a partition file in turn
// and requires each read of the mutated file to fail.
func assertEveryFlipDetected[T any](t *testing.T, label string, raw []byte, meta *Metadata, c codec.Codec[T], want []T) {
	t.Helper()
	for pos := 0; pos < len(raw); pos++ {
		mut := append([]byte{}, raw...)
		mut[pos] ^= 0x5a
		got, err := readBytesAsPartition(t, meta, c, mut, nil)
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: flip at byte %d/%d silently changed records", label, pos, len(raw))
		}
		if err == nil {
			t.Fatalf("%s: flip at byte %d/%d went undetected", label, pos, len(raw))
		}
	}
}

// FuzzV2Partition throws arbitrary bytes at the v2 reader as a whole
// partition file, seeded with the committed v2 golden part files. Every
// input is read under both a plain and a gzip dataset's metadata, so
// mutations reach the per-block decompressor as well as the raw block
// decoder. The invariants: the reader never panics (ErrCorrupt is always
// caught), and a read that succeeds returns exactly the record count the
// metadata promises — arbitrary corruption must surface as an error,
// never as silently wrong output.
func FuzzV2Partition(f *testing.F) {
	var metaGzip *Metadata
	for i := 0; i < 2; i++ {
		raw, meta, _ := goldenV2Part(f, i)
		f.Add(raw)
		metaGzip = meta
	}
	metaPlain := *metaGzip
	metaPlain.Compressed = false
	f.Add([]byte{})
	f.Add([]byte(v2Magic))
	f.Add(append(append([]byte(v2Magic), make([]byte, 12)...), v2TrailerMagic...))
	// A window over part of the golden extent: a pruned scan.
	win := []index.Box{{
		Min: [index.Dims]float64{-74, 40.7, 0},
		Max: [index.Dims]float64{-73.7, 40.85, 1800},
	}}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, meta := range []*Metadata{&metaPlain, metaGzip} {
			// Full scan: success implies the metadata count cross-check held.
			out, err := readBytesAsPartition(t, meta, goldenRecC, data, nil)
			if err == nil && int64(len(out)) != meta.Partitions[0].Count {
				t.Fatalf("compressed=%v: clean read returned %d records, metadata says %d",
					meta.Compressed, len(out), meta.Partitions[0].Count)
			}
			// Pruned scan must never panic either; its count check is
			// per-block, and corruption reported is the contract.
			_, _ = readBytesAsPartition(t, meta, goldenRecC, data, win)
		}
	})
}

// FuzzBlockFooter drives the footer decoder directly: any byte soup must
// either decode or panic ErrCorrupt (converted by Catch), with the
// entry-size guard preventing absurd pre-allocations.
func FuzzBlockFooter(f *testing.F) {
	valid := codec.GetWriter()
	encodeFooter(valid, []BlockMeta{
		{Offset: 4, Stored: 100, Raw: 200, Count: 8, Bounds: index.EmptyBox()},
		{Offset: 104, Stored: 50, Raw: 60, Count: 3},
	})
	f.Add(append([]byte{}, valid.Bytes()...), int64(1000))
	codec.PutWriter(valid)
	f.Add([]byte{}, int64(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, int64(1<<40))
	f.Fuzz(func(t *testing.T, data []byte, regionEnd int64) {
		err := codec.Catch(func() {
			blocks := decodeFooter(data, regionEnd)
			// Decoded footers satisfy the structural invariants the reader
			// depends on: ordered, non-overlapping, inside the block region.
			prevEnd := int64(v2HeaderLen)
			for _, b := range blocks {
				if b.Offset < prevEnd || b.Offset+b.Stored > regionEnd {
					t.Fatalf("decodeFooter admitted out-of-region block %+v", b)
				}
				prevEnd = b.Offset + b.Stored
			}
		})
		_ = err
	})
}

// TestV2EveryByteFlipDetected is the deterministic core of the fuzz
// contract: every byte of a v2 partition file is protected — header and
// trailer magics by explicit checks, the trailer offset by range
// validation, and everything else by a CRC32C frame — so flipping ANY
// single byte must either error or (never) return the original records.
// The gzip files are the committed golden parts; no plain v2 golden
// exists, so the plain file comes from the test fixture writer.
func TestV2EveryByteFlipDetected(t *testing.T) {
	for i := 0; i < 2; i++ {
		raw, meta, want := goldenV2Part(t, i)
		assertEveryFlipDetected(t, fmt.Sprintf("golden part %d", i), raw, meta, goldenRecC, want)
	}
	raw, meta, want := writeFuzzSeed(t, 2, false, 8)
	assertEveryFlipDetected(t, "plain", raw, meta, recC, want)
}

// TestV2TruncationsDetected chops the committed golden part files at
// every seventh length below full and expects an error each time.
func TestV2TruncationsDetected(t *testing.T) {
	for i := 0; i < 2; i++ {
		raw, meta, _ := goldenV2Part(t, i)
		for n := 0; n < len(raw); n += 7 {
			if _, err := readBytesAsPartition(t, meta, goldenRecC, raw[:n], nil); err == nil {
				t.Fatalf("part %d: truncation to %d/%d bytes went undetected", i, n, len(raw))
			}
		}
	}
}

// FuzzV3Block throws arbitrary bytes at the v3 columnar reader as a whole
// partition file, over both the native columnar path (recC carries a
// Columnar schema) and the generic row fallback. Same contract as
// FuzzV2Partition: never panic, and a clean read returns exactly the
// promised record count.
func FuzzV3Block(f *testing.F) {
	seedNative, metaNative, _ := writeFuzzSeed(f, 3, false, 8)
	f.Add(seedNative)
	f.Add([]byte{})
	f.Add([]byte(v3Magic))
	f.Add(append(append([]byte(v3Magic), make([]byte, 12)...), v3TrailerMagic...))
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := readBytesAsPartition(t, metaNative, recC, data, nil)
		if err == nil && int64(len(out)) != metaNative.Partitions[0].Count {
			t.Fatalf("clean read returned %d records, metadata says %d",
				len(out), metaNative.Partitions[0].Count)
		}
		// Columnar-pruned scan: the per-record predicate runs on decoded
		// columns, so corruption must still surface as an error, never a
		// panic or silent wrong output.
		win := []index.Box{{
			Min: [index.Dims]float64{0, 0, 0},
			Max: [index.Dims]float64{5, 5, 500},
		}}
		if _, err := readBytesAsPartition(t, metaNative, recC, data, win); err != nil {
			_ = err
		}
		// Generic fallback decode of the same bytes: a file written with a
		// columnar schema must not decode through the row path (profile
		// mismatch is structural corruption), and must never panic.
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, metaNative.Partitions[0].File), data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err = ReadPartitionPruned(dir, metaNative, 0, recRowC, nil)
		_ = err
	})
}

// TestV3EveryByteFlipDetected mirrors the v2 byte-flip wall for the
// columnar format: header and trailer magics are explicit, the footer
// (including the layout profile byte) and every column stream are CRC
// framed, so no single-byte flip may pass unnoticed.
func TestV3EveryByteFlipDetected(t *testing.T) {
	for name, c := range map[string]codec.Codec[rec]{"native": recC, "generic": recRowC} {
		dir := t.TempDir()
		rng := rand.New(rand.NewSource(99))
		parts := makeParts(rng, 1, 50)
		meta, err := Write(dir, c, parts, recBox, WriteOptions{Name: "fuzz", BlockRecords: 8})
		if err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(filepath.Join(dir, meta.Partitions[0].File))
		if err != nil {
			t.Fatal(err)
		}
		assertEveryFlipDetected(t, name, raw, meta, c, parts[0])
	}
}

// TestV3TruncationsDetected chops a v3 file at every length below full and
// expects an error each time.
func TestV3TruncationsDetected(t *testing.T) {
	raw, meta, _ := writeFuzzSeed(t, 3, false, 8)
	for n := 0; n < len(raw); n++ {
		if _, err := readBytesAsPartition(t, meta, recC, raw[:n], nil); err == nil {
			t.Fatalf("truncation to %d/%d bytes went undetected", n, len(raw))
		}
	}
}

// TestV3SchemaMismatchErrors pins the structural rules between the file's
// layout profile and the reader's codec: a native columnar file cannot be
// read by a codec without a Columnar schema, while a generic v3 file reads
// fine through a columnar codec (the profile says rows, so rows it is).
func TestV3SchemaMismatchErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	parts := makeParts(rng, 1, 30)

	nativeDir := t.TempDir()
	nm, err := Write(nativeDir, recC, parts, recBox, WriteOptions{BlockRecords: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadPartitionPruned(nativeDir, nm, 0, recRowC, nil); err == nil {
		t.Fatal("native columnar file decoded through a codec with no Columnar schema")
	}

	genericDir := t.TempDir()
	gm, err := Write(genericDir, recRowC, parts, recBox, WriteOptions{BlockRecords: 8})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadPartitionPruned(genericDir, gm, 0, recC, nil)
	if err != nil {
		t.Fatalf("generic v3 file through columnar codec: %v", err)
	}
	if !reflect.DeepEqual(got, parts[0]) {
		t.Fatal("generic v3 file decoded to different records")
	}
}
