package iofault

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Record framing for the append-only logs (sqldb's WAL, the dlfs link
// registry). Every record is
//
//	uint32 length | uint32 crc32(payload) | payload
//
// little-endian, CRC-32 IEEE. A log is appended to and fsynced, so the
// only damage a crash can do is an incomplete last frame; ScanFrames
// tells that apart from damage to bytes that were once durable.

// maxFrame bounds a frame's payload; a length field beyond it is
// treated as corruption, not allocation advice.
const maxFrame = 64 << 20

const frameHeader = 8

// AppendFrame appends payload, wrapped in the length|crc header, to dst.
func AppendFrame(dst, payload []byte) []byte {
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	return append(append(dst, hdr[:]...), payload...)
}

// Tail is what the end of a log looked like when it was scanned.
type Tail int

const (
	// TailClean: the log ends exactly on a frame boundary.
	TailClean Tail = iota
	// TailTorn: the final region is an incomplete or garbage frame with
	// nothing valid after it — the signature of a crash mid-append.
	// Truncating it loses nothing that was ever acknowledged.
	TailTorn
	// TailCorrupt: a bad frame has INTACT frames after it. The bad frame
	// once passed through a successful fsync (later appends prove it),
	// so acknowledged records live in or after the damage. Opening must
	// refuse rather than silently truncate them away.
	TailCorrupt
)

func (t Tail) String() string {
	switch t {
	case TailClean:
		return "clean"
	case TailTorn:
		return "torn-tail"
	case TailCorrupt:
		return "mid-log-corruption"
	}
	return "unknown"
}

// FrameScan is the parsed state of one log.
type FrameScan[T any] struct {
	Records []T   // the decoded intact prefix, in log order
	GoodLen int64 // byte offset past the last intact frame
	Tail    Tail
	Detail  string // human-readable description of a torn or corrupt tail
}

// parseFrame reads one frame at off and returns its decoded payload and
// the offset past it; a non-empty why says what is wrong with the bytes
// there (too few for a frame, a length beyond maxFrame, a CRC mismatch,
// a payload decode rejects).
func parseFrame[T any](data []byte, off int64, decode func([]byte) (T, error)) (rec T, next int64, why string) {
	rest := int64(len(data)) - off
	if rest < frameHeader {
		return rec, off, "incomplete frame header"
	}
	length := int64(binary.LittleEndian.Uint32(data[off : off+4]))
	if length > maxFrame {
		return rec, off, fmt.Sprintf("implausible frame length %d", length)
	}
	if rest < frameHeader+length {
		return rec, off, "incomplete frame payload"
	}
	next = off + frameHeader + length
	payload := data[off+frameHeader : next]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[off+4:off+8]) {
		return rec, off, "frame CRC mismatch"
	}
	rec, err := decode(payload)
	if err != nil {
		return rec, off, fmt.Sprintf("undecodable frame: %v", err)
	}
	return rec, next, ""
}

// ScanFrames parses data as a sequence of frames, decoding each intact
// payload with decode (an error marks the frame bad, like a CRC
// mismatch; the payload aliases data, so decode must copy what it
// keeps), and classifies the tail instead of silently stopping at the
// first bad frame. It never mutates data: the caller decides whether to
// truncate at GoodLen (torn) or refuse (corrupt).
func ScanFrames[T any](data []byte, decode func(payload []byte) (T, error)) FrameScan[T] {
	var scan FrameScan[T]
	for scan.GoodLen < int64(len(data)) {
		rec, next, why := parseFrame(data, scan.GoodLen, decode)
		if why != "" {
			// A bad frame with nothing valid behind it — cut short, or
			// complete but failing its check — is what a crashed append
			// leaves. The same frame with an intact one anywhere after
			// it (a length field flipped to point past the end of the
			// file included) was once durable.
			scan.Tail, scan.Detail = TailTorn, why
			if anyFrameAfter(data, scan.GoodLen+1, decode) {
				scan.Tail = TailCorrupt
				scan.Detail = fmt.Sprintf("%s at offset %d with intact frames after it", why, scan.GoodLen)
			}
			return scan
		}
		scan.Records = append(scan.Records, rec)
		scan.GoodLen = next
	}
	return scan
}

// anyFrameAfter reports whether any intact frame starts at or past
// from. It tries every byte offset: corruption recovery is rare enough
// that O(n·m) honesty beats a fast guess.
func anyFrameAfter[T any](data []byte, from int64, decode func([]byte) (T, error)) bool {
	for off := from; off+frameHeader <= int64(len(data)); off++ {
		if _, _, why := parseFrame(data, off, decode); why == "" {
			return true
		}
	}
	return false
}
