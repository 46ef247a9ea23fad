package prf

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"unsafe"
)

// CTR is AES-128 in counter mode under one key, with the zero IV and the
// big-endian 128-bit block counter of crypto/cipher's CTR: keystream
// block b is AES_k(b). The key is expanded once, and the stream is
// random-access: KeyStream writes the bytes at any offset without
// carrying stream state, so one CTR serves every batch of a leaf stream
// and concurrent readers share nothing mutable. The lane kernels
// (lanes.go) read the same schedules, eight CTRs at a time.
type CTR struct {
	rk    [176]byte    // the expanded schedule, for the 8-wide AESENC kernel
	block cipher.Block // the same key behind crypto/aes; set only without AES-NI
}

// NewCTR expands key for KeyStream.
func NewCTR(key Seed) (c CTR) {
	if hasAES8 {
		expandKey128(&key, &c.rk)
		return c
	}
	// aes.NewCipher fails only for a key length other than 16, 24 or 32
	// bytes, and a Seed is 16.
	block, _ := aes.NewCipher(key[:])
	return CTR{block: block}
}

// KeyStream writes the keystream bytes at offsets [off, off+len(dst))
// into dst. It allocates nothing: the counter and output blocks live on
// the stack, laundered through noescape for the cipher.Block fallback
// exactly as the MMO hash paths do (fixedkey.go). Eight whole blocks
// from a block boundary are encrypted straight into dst; any shorter
// read still costs a whole 8-block pass, so a reader of a few blocks
// under many keys belongs on the lane kernels (LeafSums, KeyBlocks).
func (c *CTR) KeyStream(dst []byte, off uint64) {
	var scratch [2][8]Block
	s := (*[2][8]Block)(noescape(unsafe.Pointer(&scratch)))
	ctr, ks := &s[0], &s[1]
	skip := int(off % 16)
	for b := off / 16; len(dst) > 0; b += 8 {
		for k := range ctr {
			binary.BigEndian.PutUint64(ctr[k][8:], b+uint64(k))
		}
		if c.block == nil {
			if skip == 0 && len(dst) >= len(ks)*len(ks[0]) {
				encryptBlocks8(&c.rk, (*[8]Block)(unsafe.Pointer(&dst[0])), ctr)
				dst = dst[len(ks)*len(ks[0]):]
				continue
			}
			encryptBlocks8(&c.rk, ks, ctr)
		} else {
			for k := range ctr {
				c.block.Encrypt(ks[k][:], ctr[k][:])
			}
		}
		dst = dst[copy(dst, BlockBytes(ks[:])[skip:]):]
		skip = 0
	}
}
