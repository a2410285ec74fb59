// Package murmur implements the MurmurHash3 family of non-cryptographic hash
// functions.
//
// dbDedup hashes every content-defined chunk of a record to build its
// similarity sketch. Because similarity detection tolerates collisions (the
// final delta-compression step is byte-exact regardless of hash quality),
// dbDedup uses MurmurHash instead of a collision-resistant hash such as
// SHA-1, trading a negligible false-positive rate for a large reduction in
// CPU cost (paper §3.1.1).
//
// The implementation covers two variants:
//
//   - Sum64: the 64-bit half of MurmurHash3_x64_128 (common "murmur64" use)
//   - Sum128: MurmurHash3_x64_128
//
// All variants accept an explicit seed so callers can derive independent hash
// functions (the cuckoo feature index needs several).
package murmur

import "encoding/binary"

const (
	c1_64 = 0x87c37b91114253d5
	c2_64 = 0x4cf5ad432745937f
)

// Sum64 returns the first 64 bits of the 128-bit MurmurHash3 of data.
// It is the conventional "Murmur64" used for chunk-hash features.
func Sum64(data []byte, seed uint64) uint64 {
	h1, _ := Sum128(data, seed)
	return h1
}

// Sum128 returns the 128-bit MurmurHash3 (x64 variant) of data as two
// 64-bit words.
func Sum128(data []byte, seed uint64) (uint64, uint64) {
	h1 := seed
	h2 := seed
	n := len(data)
	full := n - n%16

	for i := 0; i < full; i += 16 {
		k1 := binary.LittleEndian.Uint64(data[i:])
		k2 := binary.LittleEndian.Uint64(data[i+8:])

		k1 *= c1_64
		k1 = rotl64(k1, 31)
		k1 *= c2_64
		h1 ^= k1

		h1 = rotl64(h1, 27)
		h1 += h2
		h1 = h1*5 + 0x52dce729

		k2 *= c2_64
		k2 = rotl64(k2, 33)
		k2 *= c1_64
		h2 ^= k2

		h2 = rotl64(h2, 31)
		h2 += h1
		h2 = h2*5 + 0x38495ab5
	}

	var k1, k2 uint64
	tail := data[full:]
	switch len(tail) {
	case 15:
		k2 ^= uint64(tail[14]) << 48
		fallthrough
	case 14:
		k2 ^= uint64(tail[13]) << 40
		fallthrough
	case 13:
		k2 ^= uint64(tail[12]) << 32
		fallthrough
	case 12:
		k2 ^= uint64(tail[11]) << 24
		fallthrough
	case 11:
		k2 ^= uint64(tail[10]) << 16
		fallthrough
	case 10:
		k2 ^= uint64(tail[9]) << 8
		fallthrough
	case 9:
		k2 ^= uint64(tail[8])
		k2 *= c2_64
		k2 = rotl64(k2, 33)
		k2 *= c1_64
		h2 ^= k2
		fallthrough
	case 8:
		k1 ^= uint64(tail[7]) << 56
		fallthrough
	case 7:
		k1 ^= uint64(tail[6]) << 48
		fallthrough
	case 6:
		k1 ^= uint64(tail[5]) << 40
		fallthrough
	case 5:
		k1 ^= uint64(tail[4]) << 32
		fallthrough
	case 4:
		k1 ^= uint64(tail[3]) << 24
		fallthrough
	case 3:
		k1 ^= uint64(tail[2]) << 16
		fallthrough
	case 2:
		k1 ^= uint64(tail[1]) << 8
		fallthrough
	case 1:
		k1 ^= uint64(tail[0])
		k1 *= c1_64
		k1 = rotl64(k1, 31)
		k1 *= c2_64
		h1 ^= k1
	}

	h1 ^= uint64(n)
	h2 ^= uint64(n)

	h1 += h2
	h2 += h1

	h1 = fmix64(h1)
	h2 = fmix64(h2)

	h1 += h2
	h2 += h1

	return h1, h2
}

func rotl64(x uint64, r uint) uint64 { return x<<r | x>>(64-r) }

func fmix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
