package checkcache

import (
	"crypto/sha256"
	"encoding/binary"
)

// KeyOf is KeyOfBytes with every part a string, hashed on its own so
// the tests can hold the two against each other. No caller outside the
// tests builds a key from strings alone.
func KeyOf(parts ...string) Key {
	h := sha256.New()
	var lenBuf [8]byte
	for _, p := range parts {
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(p)))
		h.Write(lenBuf[:])
		h.Write([]byte(p))
	}
	var k Key
	h.Sum(k[:0])
	return k
}
