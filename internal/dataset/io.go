package dataset

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
)

// FIMI text format: one transaction per line, space-separated non-negative
// integer item ids, as used by the FIMI repository datasets the paper
// benchmarks on (Retail, Kosarak, Bms1, Bms2, Bmspos, Pumsb*). Readers accept
// arbitrary ids and remap is left to the caller via ReadFIMI's returned
// universe size (max id + 1). Gzip-compressed streams are detected by their
// 2-byte magic header and decompressed transparently, so the large public
// FIMI datasets can be used without unpacking.

// maybeGzip sniffs the gzip magic header (0x1f 0x8b) and, when present,
// interposes a decompressor. Streams shorter than two bytes (including empty
// ones) pass through untouched.
func maybeGzip(r io.Reader) (io.Reader, error) {
	br := bufio.NewReader(r)
	magic, err := br.Peek(2)
	if err != nil || len(magic) < 2 || magic[0] != 0x1f || magic[1] != 0x8b {
		return br, nil
	}
	zr, err := gzip.NewReader(br)
	if err != nil {
		return nil, fmt.Errorf("dataset: gzip: %w", err)
	}
	return zr, nil
}

// ReadFIMI parses a FIMI-format stream, transparently decompressing gzip
// input. The item universe is [0, maxID+1).
func ReadFIMI(r io.Reader) (*Dataset, error) {
	plain, err := maybeGzip(r)
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(plain)
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	var tx [][]uint32
	maxID := -1
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		var tr []uint32
		i := 0
		for i < len(line) {
			// Skip separators.
			for i < len(line) && (line[i] == ' ' || line[i] == '\t' || line[i] == '\r') {
				i++
			}
			start := i
			for i < len(line) && line[i] >= '0' && line[i] <= '9' {
				i++
			}
			if i == start {
				if i < len(line) {
					return nil, fmt.Errorf("dataset: line %d: unexpected byte %q", lineNo, line[i])
				}
				break
			}
			v, err := strconv.Atoi(string(line[start:i]))
			if err != nil {
				return nil, fmt.Errorf("dataset: line %d: %v", lineNo, err)
			}
			if uint64(v) > math.MaxUint32 {
				// Item ids are stored as uint32; silently wrapping would
				// alias distinct ids, so refuse the input instead.
				return nil, fmt.Errorf("dataset: line %d: item id %d overflows uint32", lineNo, v)
			}
			if v > maxID {
				maxID = v
			}
			tr = append(tr, uint32(v))
		}
		tx = append(tx, tr)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dataset: scan: %w", err)
	}
	return New(maxID+1, tx)
}

// ReadFIMIFile opens and parses a FIMI file.
func ReadFIMIFile(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadFIMI(f)
}

// WriteFIMI writes the dataset in FIMI format.
func WriteFIMI(w io.Writer, d *Dataset) error {
	bw := bufio.NewWriter(w)
	buf := make([]byte, 0, 16)
	for _, tr := range d.Transactions() {
		for j, it := range tr {
			if j > 0 {
				if err := bw.WriteByte(' '); err != nil {
					return err
				}
			}
			buf = strconv.AppendUint(buf[:0], uint64(it), 10)
			if _, err := bw.Write(buf); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}
