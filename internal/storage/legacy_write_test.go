package storage

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"os"
	"path/filepath"

	"st4ml/internal/codec"
	"st4ml/internal/index"
)

// fixtureOptions selects the layout writeFixture lays a dataset out in.
type fixtureOptions struct {
	Name string
	// Version is 1 (monolithic file), 2 (row-major blocks) or 3 (the
	// current columnar layout, written by Write); 0 means 3.
	Version int
	// Compress gzips v1 files whole and v2 blocks one by one; v3 ignores it.
	Compress bool
	// BlockRecords is the records-per-block target (v2/v3); 0 means the
	// layout's default (4096 for v2, DefaultBlockRecords for v3).
	BlockRecords int
}

// writeFixture writes parts as a dataset in any of the three layouts.
// Only v3 is written by the program; the v1 and v2 writers here reproduce
// the files older releases wrote, so the legacy readers' parameterised
// sweeps (layouts × block sizes × compression) can run on fresh data.
// Single-fixture tests read the committed testdata/v{1,2}-golden files.
func writeFixture[T any](
	dir string, c codec.Codec[T], parts [][]T, boxOf func(T) index.Box, o fixtureOptions,
) (*Metadata, error) {
	if o.Version == 0 || o.Version == FormatVersion {
		return Write(dir, c, parts, boxOf, WriteOptions{Name: o.Name, BlockRecords: o.BlockRecords})
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	meta := &Metadata{Name: o.Name, Compressed: o.Compress, Framed: true}
	if o.Version == 2 {
		meta.Version = 2
		meta.BlockRecords = o.BlockRecords
		if meta.BlockRecords <= 0 {
			meta.BlockRecords = 4096
		}
	}
	for i, part := range parts {
		var raw []byte
		var bounds index.Box
		if o.Version == 2 {
			raw, bounds = encodeV2(c, part, boxOf, o.Compress, meta.BlockRecords)
		} else {
			raw, bounds = encodeV1(c, part, boxOf, o.Compress)
		}
		name := partitionFileName(i)
		if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
			return nil, err
		}
		pm := PartitionMeta{File: name, Count: int64(len(part)), Bytes: int64(len(raw))}
		pm.setBounds(bounds)
		meta.TotalCount += pm.Count
		meta.Partitions = append(meta.Partitions, pm)
	}
	if err := writeMetadata(dir, meta); err != nil {
		return nil, err
	}
	return meta, nil
}

// gzipBytes compresses b as one gzip stream.
func gzipBytes(b []byte) []byte {
	var out bytes.Buffer
	gz := gzip.NewWriter(&out)
	if _, err := gz.Write(b); err != nil {
		panic(err)
	}
	if err := gz.Close(); err != nil {
		panic(err)
	}
	return out.Bytes()
}

// encodeV1 lays a partition out as the v1 monolithic file: integrity
// frames of back-to-back record encodings, gzipped whole when compress.
func encodeV1[T any](c codec.Codec[T], part []T, boxOf func(T) index.Box, compress bool) ([]byte, index.Box) {
	recW, out := codec.NewWriter(1024), codec.NewWriter(1024)
	bounds := index.EmptyBox()
	for _, rec := range part {
		c.Enc(recW, rec)
		bounds = bounds.Union(boxOf(rec))
	}
	if recW.Len() > 0 {
		out.PutFrame(recW.Bytes())
	}
	if compress {
		return gzipBytes(out.Bytes()), bounds
	}
	return out.Bytes(), bounds
}

// encodeV2 lays a partition out as the v2 block file of block.go: header
// magic, one frame per blockRecords records (gzipped when compress), the
// framed footer and the trailer pointing at it.
func encodeV2[T any](
	c codec.Codec[T], part []T, boxOf func(T) index.Box, compress bool, blockRecords int,
) ([]byte, index.Box) {
	out := codec.NewWriter(1024)
	out.PutRaw([]byte(v2Magic))
	var blocks []BlockMeta
	bounds := index.EmptyBox()
	for start := 0; start < len(part); start += blockRecords {
		end := min(start+blockRecords, len(part))
		recW := codec.NewWriter(1024)
		blockBounds := index.EmptyBox()
		for _, rec := range part[start:end] {
			c.Enc(recW, rec)
			blockBounds = blockBounds.Union(boxOf(rec))
		}
		bounds = bounds.Union(blockBounds)
		payload := recW.Bytes()
		if compress {
			payload = gzipBytes(payload)
		}
		off := int64(out.Len())
		out.PutFrame(payload)
		blocks = append(blocks, BlockMeta{
			Offset: off, Stored: int64(out.Len()) - off, Raw: int64(recW.Len()),
			Count: int64(end - start), Bounds: blockBounds,
		})
	}
	footerOff := out.Len()
	footer := codec.NewWriter(256)
	encodeFooter(footer, blocks)
	out.PutFrame(footer.Bytes())
	var trailer [v2TrailerLen]byte
	binary.LittleEndian.PutUint64(trailer[:8], uint64(footerOff))
	copy(trailer[8:], v2TrailerMagic)
	out.PutRaw(trailer[:])
	return out.Bytes(), bounds
}
