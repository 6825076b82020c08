package store

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"coordsample/internal/sketch"
)

// FuzzOpenManifest opens arbitrary MANIFEST bytes over a directory of
// valid segments — epochs 1..6 and the cumulative segment of epochs 1..n
// for every n — both as given and resealed with valid line checksums, so
// mutations reach the record parser and the recovery checks. Open must
// never panic, and must return a store, a *CorruptError or a
// *MismatchError. After a writable open succeeds, one commit plus a
// reopen must recover exactly one more epoch.
func FuzzOpenManifest(f *testing.F) {
	epochs := buildEpochs(f, 7, 40)
	files := map[string][]byte{}
	lines := map[string]string{}
	for n := 1; n <= 6; n++ {
		for _, seg := range []struct {
			kind     byte
			prefix   string
			sketches []*sketch.BottomK
		}{{'E', "epoch", epochs[n-1]}, {'C', "cum", mergeAll(f, epochs[:n])}} {
			var buf bytes.Buffer
			crc, err := sketch.EncodeSegment(&buf, testSample.WireMetas(2), seg.sketches)
			if err != nil {
				f.Fatal(err)
			}
			name := segmentName(seg.prefix, n)
			files[name] = buf.Bytes()
			lines[fmt.Sprintf("%c %d", seg.kind, n)] = manifestLine(seg.kind, n, name, buf.Len(), crc, fingerprints(seg.sketches))
		}
	}
	manifest := func(records ...string) string {
		text := manifestHeaderPrefix + "2\n"
		for _, rec := range records {
			text += lines[rec]
		}
		return text
	}
	f.Add([]byte(manifest("E 1", "E 2", "E 3")))                 // the ring filling
	f.Add([]byte(manifest("C 5", "E 4", "E 5")))                 // a full ring
	f.Add([]byte(manifest("E 1", "E 2") + lines["E 3"][:30]))    // an unterminated line: corrupt
	f.Add([]byte(manifest("C 3", "E 2", "E 3", "E 4")))          // C below the last E
	f.Add(reseal([]byte(manifest() + "E 1" + lines["E 2"][3:]))) // E 1 naming epoch 2's file
	fresh := epochs[6]

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, data := range [][]byte{data, reseal(data)} {
			dir := t.TempDir()
			for name, seg := range files {
				if err := os.WriteFile(filepath.Join(dir, name), seg, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if err := os.WriteFile(filepath.Join(dir, manifestName), data, 0o644); err != nil {
				t.Fatal(err)
			}
			if s, err := Open(Config{Dir: dir}); err == nil {
				s.Close()
			} else {
				requireTyped(t, err)
			}
			cfg := Config{Dir: dir, Retain: 2, Sample: testSample, Assignments: 2}
			s, err := Open(cfg)
			if err != nil {
				requireTyped(t, err)
				continue
			}
			epoch, sets := s.Epoch(), [][]*sketch.BottomK{fresh}
			if cum := s.Cumulative(); cum != nil {
				sets = append(sets, cum)
			}
			if got, err := s.AppendEpoch(fresh); err != nil || got != epoch+1 {
				t.Fatalf("commit after recovering epoch %d: epoch %d, err %v", epoch, got, err)
			}
			s.Close()
			re, err := Open(cfg)
			if err != nil {
				t.Fatalf("reopen after one commit: %v", err)
			}
			if re.Epoch() != epoch+1 {
				t.Fatalf("reopen recovered epoch %d, want %d", re.Epoch(), epoch+1)
			}
			sameSketchSet(t, "cumulative after one commit", re.Cumulative(), mergeAll(t, sets))
			re.Close()
		}
	})
}

// requireTyped fails unless err is a *CorruptError or a *MismatchError.
func requireTyped(t *testing.T, err error) {
	t.Helper()
	var ce *CorruptError
	var me *MismatchError
	if !errors.As(err, &ce) && !errors.As(err, &me) {
		t.Fatalf("Open returned untyped error %v", err)
	}
}

// reseal recomputes the trailing checksum of every line after the first,
// as manifestLine would.
func reseal(data []byte) []byte {
	lines := strings.SplitAfter(string(data), "\n")
	for i := 1; i < len(lines); i++ {
		body, nl := strings.CutSuffix(lines[i], "\n")
		if j := strings.LastIndexByte(body, ' '); j > 0 {
			body = strings.TrimRight(body[:j], " ")
			lines[i] = fmt.Sprintf("%s %08x", body, crc32.Checksum([]byte(body), castagnoli))
			if nl {
				lines[i] += "\n"
			}
		}
	}
	return []byte(strings.Join(lines, ""))
}
