package ipc

import "sync"

// rawBufPool recycles inbound raw-payload buffers across both transports.
// The handler contract — the payload slice is valid only until the handler
// returns — is what makes reuse safe; ocl.Runtime copies what it keeps.
var rawBufPool sync.Pool

func getRawBuf(n int) *[]byte {
	if v := rawBufPool.Get(); v != nil {
		bp := v.(*[]byte)
		if cap(*bp) >= n {
			*bp = (*bp)[:n]
			return bp
		}
	}
	b := make([]byte, n)
	return &b
}

func putRawBuf(bp *[]byte) { rawBufPool.Put(bp) }
