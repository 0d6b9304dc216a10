package store

// Packs: the fleet's on-disk unit. A pack is one immutable file holding
// shard records (coder.go) back to back, with no header, footer or index of
// its own — every record says which shard of which chunk it is and how long
// it is, so the records locate each other and a pack can be indexed by
// walking its headers. One Put writes one pack per node (plus a further
// part whenever a node's share passes packPartSize), so checkpoint I/O pays
// the disk's per-file latency per node, not per shard.

import (
	"crypto/sha256"
	"errors"
	"fmt"
)

// packPartSize bounds how many bytes of records a Put buffers per node
// before it writes them out as a part.
const packPartSize = 4 << 20

// errTornPack marks a pack whose bytes stop making sense before the file
// ends: a torn write, a truncation, or rot in a record header. The records
// in front of the damage are good; whatever followed reads as missing
// shards.
var errTornPack = errors.New("torn pack")

// packRecord locates one record inside a pack.
type packRecord struct {
	shardHeader
	off, n int // the record's byte range, header included
}

// scanPack walks the record headers of a pack. It verifies no digests —
// those are checked when a record is used — so it costs one pass over the
// headers. On damage it returns the records before it and an error
// wrapping errTornPack.
func scanPack(data []byte) ([]packRecord, error) {
	var recs []packRecord
	for off := 0; off < len(data); {
		h, err := parseShardHeader(data[off:])
		if err != nil {
			return recs, fmt.Errorf("pack: offset %d of %d: %w: %v", off, len(data), errTornPack, err)
		}
		n := shardHeaderSize + h.payloadLen
		recs = append(recs, packRecord{shardHeader: h, off: off, n: n})
		off += n
	}
	return recs, nil
}

// recordAt verifies the record a pack holds at [off, off+n): in bounds,
// digest good, and the shard idx of the chunk at sum that the caller
// expects there.
func recordAt(data []byte, off, n int, sum string, idx int) (shardHeader, []byte, bool) {
	if off < 0 || n < 0 || off+n > len(data) {
		return shardHeader{}, nil, false
	}
	h, payload, err := decodeShard(data[off : off+n])
	return h, payload, err == nil && h.sum == sum && h.idx == idx
}

// packBuf accumulates the records bound for one node's next pack.
type packBuf struct {
	data []byte
	recs []packRecord
}

// packBufStart is a buffer's first allocation: room for the few records of
// a small Put or a heal.
const packBufStart = 64 << 10

// room makes space for n more bytes. A Put writes a node's queue out once
// it passes packPartSize, so a queue that outgrows its first allocation is
// on its way to a full part and gets one in a single step: a buffer that
// lives as long as its node is sized twice, not once per doubling.
func (b *packBuf) room(n int) {
	need := len(b.data) + n
	if need <= cap(b.data) {
		return
	}
	size := max(need, packBufStart)
	if cap(b.data) > 0 {
		size = max(need+need/4, packPartSize+packPartSize/16)
	}
	b.data = append(make([]byte, 0, size), b.data...)
}

// add frames one shard as the pack's next record. h.sum must be a
// SHA-256 in hex, which is what every chunk address is.
func (b *packBuf) add(h shardHeader, payload []byte) error {
	addr, ok := decodeDigest(h.sum)
	if !ok {
		return fmt.Errorf("store: chunk address %q is not a SHA-256", h.sum)
	}
	b.addDigested(h, addr[:], payload, recordDigest(addr[:], h.idx, h.k, h.m, h.origLen, payload))
	return nil
}

// addDigested is add for a shard whose record digest is known: addr is
// h.sum raw, digest recordDigest of the two.
func (b *packBuf) addDigested(h shardHeader, addr, payload []byte, digest [sha256.Size]byte) {
	off := len(b.data)
	b.room(shardHeaderSize + len(payload))
	b.data = appendShard(b.data, addr, h.idx, h.k, h.m, h.origLen, payload, digest)
	h.payloadLen = len(payload)
	b.recs = append(b.recs, packRecord{shardHeader: h, off: off, n: len(b.data) - off})
}

// copyRecord appends an already framed record verbatim.
func (b *packBuf) copyRecord(h shardHeader, rec []byte) {
	b.recs = append(b.recs, packRecord{shardHeader: h, off: len(b.data), n: len(rec)})
	b.room(len(rec))
	b.data = append(b.data, rec...)
}

func (b *packBuf) reset() {
	b.data, b.recs = b.data[:0], b.recs[:0]
}
