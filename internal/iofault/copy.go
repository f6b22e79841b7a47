package iofault

import (
	"io"
	"sync"
	"syscall"
)

// copyBufs holds the buffers Copy lends out when neither side copies
// for itself: the size io.Copy would allocate per call.
var copyBufs = sync.Pool{New: func() any { return new([32 << 10]byte) }}

// Copy is io.Copy without the per-call buffer. It keeps the path a side
// offers for itself — the source's WriteTo (a bytes.Reader) or the
// destination's ReadFrom (net/http's response, which pools its own
// buffer and can sendfile) — except where that side is a descriptor (an
// *os.File or a socket: a syscall.Conn) and the other side is not. Then
// the descriptor's method has no kernel copy to make and falls back to
// io.Copy with a fresh 32 KiB buffer; Copy borrows one from a pool
// instead, and returns it however the copy ends.
func Copy(dst io.Writer, src io.Reader) (int64, error) {
	_, srcFD := src.(syscall.Conn)
	_, dstFD := dst.(syscall.Conn)
	if wt, ok := src.(io.WriterTo); ok && (!srcFD || dstFD) {
		return wt.WriteTo(dst)
	}
	if rf, ok := dst.(io.ReaderFrom); ok && (!dstFD || srcFD) {
		return rf.ReadFrom(src)
	}
	buf := copyBufs.Get().(*[32 << 10]byte)
	defer copyBufs.Put(buf)
	// The wrappers hide the methods just turned down from CopyBuffer.
	return io.CopyBuffer(struct{ io.Writer }{dst}, struct{ io.Reader }{src}, buf[:])
}
