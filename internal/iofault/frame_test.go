package iofault

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// decodeTest is the test decoder: it keeps a copy of the payload and
// rejects an empty one or one that starts with 0xff, so that the scan's
// "CRC fine, payload refused" arm is reachable.
func decodeTest(payload []byte) ([]byte, error) {
	if len(payload) == 0 || payload[0] == 0xff {
		return nil, errors.New("refused")
	}
	return append([]byte(nil), payload...), nil
}

// frameCase is one log image and what scanning it must find.
type frameCase struct {
	name    string
	data    []byte
	records int
	tail    Tail
}

// frameCorpus builds the tail shapes sqldb's recovery_test.go pins for
// the WAL (clean, empty, torn header, torn payload, garbage tail, final
// frame damaged, mid-log payload / CRC / length damaged) over two logs:
// one of short binary payloads shaped like WAL records, one of the JSON
// link records a dlfs registry holds.
func frameCorpus() []frameCase {
	walLike := [][]byte{
		{7, 0, 0, 0, 0, 0, 0, 0, 0}, // epoch
		{1, 9, 0, 0, 0, 0, 0, 0, 0}, // begin
		append([]byte{3, 9, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 'T'}, bytes.Repeat([]byte{0x2a}, 40)...),
		{2, 9, 0, 0, 0, 0, 0, 0, 0}, // commit
		{1, 10, 0, 0, 0, 0, 0, 0, 0},
		{4, 10, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 'T', 5, 0, 0, 0, 0, 0, 0, 0},
		{2, 10, 0, 0, 0, 0, 0, 0, 0},
	}
	registryLike := [][]byte{
		[]byte(`{"path":"/runs/S1/ts0001.dat","opts":{"FileLinkControl":true,"ReadPerm":1},"linked_at":"2026-10-02T13:04:43.627741231Z","unlinked_at":"0001-01-01T00:00:00Z"}`),
		[]byte(`{"path":"/runs/S1/ts0002.dat","opts":{"FileLinkControl":true,"ReadPerm":1},"linked_at":"2026-10-02T13:04:43.627741726Z","unlinked_at":"0001-01-01T00:00:00Z"}`),
		[]byte(`{"path":"/runs/S1/ts0001.dat","opts":{"FileLinkControl":true,"ReadPerm":1},"linked_at":"2026-10-02T13:04:43.627741231Z","unlinked_at":"2026-10-02T13:04:43.630292723Z"}`),
	}
	var cases []frameCase
	for _, log := range []struct {
		name     string
		payloads [][]byte
	}{{"wal", walLike}, {"registry", registryLike}} {
		var clean []byte
		var offs []int
		for _, p := range log.payloads {
			offs = append(offs, len(clean))
			clean = AppendFrame(clean, p)
		}
		n := len(log.payloads)
		mid, last := offs[n/2], offs[n-1]
		dup := func() []byte { return append([]byte(nil), clean...) }
		flip := func(at int) []byte {
			b := dup()
			b[at] ^= 0x10
			return b
		}
		garbage := make([]byte, 200)
		rand.New(rand.NewSource(3)).Read(garbage) //nolint:errcheck // never fails
		add := func(name string, data []byte, records int, tail Tail) {
			cases = append(cases, frameCase{log.name + "/" + name, data, records, tail})
		}
		add("clean", clean, n, TailClean)
		add("empty", nil, 0, TailClean)
		add("torn header", append(dup(), 0x9c, 0x01, 0x00), n, TailTorn)
		add("torn payload", clean[:len(clean)-5], n-1, TailTorn)
		add("garbage tail", append(dup(), garbage...), n, TailTorn)
		add("zeroed tail", append(dup(), make([]byte, 64)...), n, TailTorn)
		add("final frame payload flip", flip(len(clean)-2), n-1, TailTorn)
		add("final frame length flip", flip(last+1), n-1, TailTorn)
		add("mid-log payload flip", flip(mid+9), n/2, TailCorrupt)
		add("mid-log CRC flip", flip(mid+5), n/2, TailCorrupt)
		absurd := dup()
		copy(absurd[mid:], []byte{0xff, 0xff, 0xff, 0x7f})
		add("mid-log length absurd", absurd, n/2, TailCorrupt)
		// A length that is plausible but runs past the end of the file
		// looks, at that frame alone, exactly like a torn append.
		add("mid-log length past EOF", flip(mid+1), n/2, TailCorrupt)
		refused := append(AppendFrame(dup()[:mid], []byte{0xff, 1, 2}), clean[mid:]...)
		add("mid-log payload refused by decode", refused, n/2, TailCorrupt)
	}
	return cases
}

func TestScanFramesCorpus(t *testing.T) {
	for _, c := range frameCorpus() {
		scan := ScanFrames(c.data, decodeTest)
		if scan.Tail != c.tail || len(scan.Records) != c.records {
			t.Errorf("%s: %d records, tail %v (%s); want %d, %v", c.name, len(scan.Records), scan.Tail, scan.Detail, c.records, c.tail)
		}
		checkScanInvariants(t, c.data, scan)
	}
}

// checkScanInvariants holds a scan of arbitrary bytes to what every
// caller relies on: the intact prefix is inside the data, re-reads
// identically and clean, and is a frame boundary a new frame can be
// appended at and found.
func checkScanInvariants(t *testing.T, data []byte, scan FrameScan[[]byte]) {
	t.Helper()
	if scan.GoodLen < 0 || scan.GoodLen > int64(len(data)) {
		t.Fatalf("GoodLen %d outside data of %d bytes", scan.GoodLen, len(data))
	}
	if (scan.Tail == TailClean) != (scan.GoodLen == int64(len(data))) {
		t.Fatalf("tail %v with %d of %d bytes intact", scan.Tail, scan.GoodLen, len(data))
	}
	var held int64
	for _, p := range scan.Records {
		held += frameHeader + int64(len(p))
	}
	if held != scan.GoodLen {
		t.Fatalf("records account for %d bytes, GoodLen is %d", held, scan.GoodLen)
	}
	prefix := data[:scan.GoodLen:scan.GoodLen]
	again := ScanFrames(prefix, decodeTest)
	if again.Tail != TailClean || again.GoodLen != scan.GoodLen || len(again.Records) != len(scan.Records) {
		t.Fatalf("intact prefix re-scans as %d records, %d bytes, tail %v; was %d records, %d bytes", len(again.Records), again.GoodLen, again.Tail, len(scan.Records), scan.GoodLen)
	}
	for i := range again.Records {
		if !bytes.Equal(again.Records[i], scan.Records[i]) {
			t.Fatalf("record %d differs on re-scan", i)
		}
	}
	next := []byte("appended after recovery")
	grown := ScanFrames(AppendFrame(prefix, next), decodeTest)
	if grown.Tail != TailClean || len(grown.Records) != len(scan.Records)+1 || !bytes.Equal(grown.Records[len(scan.Records)], next) {
		t.Fatalf("a frame appended at GoodLen is not found: %d records, tail %v (%s)", len(grown.Records), grown.Tail, grown.Detail)
	}
}

// FuzzScanFrames feeds the frame scanner — the decoder under both the
// WAL and the dlfs link registry — arbitrary bytes. A length field is
// only ever compared and sliced with, never allocated from, so no input
// can make the scan hold more than the data it was given.
func FuzzScanFrames(f *testing.F) {
	for _, c := range frameCorpus() {
		f.Add(c.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkScanInvariants(t, data, ScanFrames(data, decodeTest))
	})
}
