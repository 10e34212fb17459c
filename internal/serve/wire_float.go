package serve

// Reply floats are most of a reply's bytes and, through strconv, most
// of its encoding time. appendFloat32 writes them with Ryū (Adams,
// "Ryū: fast float-to-string conversion", PLDI 2018) specialised to
// float32: the same shortest, closest digits strconv.AppendFloat(x,
// 'f' or 'e', -1, 32) finds, without its generic decimal plumbing.
// TestWireEncodeMatchesJSON compares it with encoding/json, and
// TestFloat32WireAllBits (every float32 under -wire.allbits) and
// FuzzFloat32Wire compare each float's bytes.

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
)

const (
	ryuInvBits = 59 // bits of a ryuPow5Inv entry
	ryuBits    = 61 // bits of a ryuPow5 entry
)

// ryuPow5Inv[q] is floor(2^(pow5bits(q)-1+ryuInvBits) / 5^q) + 1 and
// ryuPow5[i] is floor(5^i / 2^(pow5bits(i)-ryuBits)): 5^-q and 5^i
// scaled to 64-bit fixed point, for every q and i a float32 needs.
// TestRyuTables derives both with math/big.
var ryuPow5Inv = [31]uint64{
	0x0800000000000001, 0x0666666666666667, 0x051eb851eb851eb9, 0x04189374bc6a7efa,
	0x068db8bac710cb2a, 0x053e2d6238da3c22, 0x0431bde82d7b634e, 0x06b5fca6af2bd216,
	0x055e63b88c230e78, 0x044b82fa09b5a52d, 0x06df37f675ef6eae, 0x057f5ff85e592558,
	0x0465e6604b7a8447, 0x0709709a125da071, 0x05a126e1a84ae6c1, 0x0480ebe7b9d58567,
	0x0734aca5f6226f0b, 0x05c3bd5191b525a3, 0x049c97747490eae9, 0x0760f253edb4ab0e,
	0x05e72843249088d8, 0x04b8ed0283a6d3e0, 0x078e480405d7b966, 0x060b6cd004ac9452,
	0x04d5f0a66a23a9db, 0x07bcb43d769f762b, 0x063090312bb2c4ef, 0x04f3a68dbc8f03f3,
	0x07ec3daf94180651, 0x065697bfa9acd1da, 0x051212ffbaf0a7e2,
}

var ryuPow5 = [48]uint64{
	0x1000000000000000, 0x1400000000000000, 0x1900000000000000, 0x1f40000000000000,
	0x1388000000000000, 0x186a000000000000, 0x1e84800000000000, 0x1312d00000000000,
	0x17d7840000000000, 0x1dcd650000000000, 0x12a05f2000000000, 0x174876e800000000,
	0x1d1a94a200000000, 0x12309ce540000000, 0x16bcc41e90000000, 0x1c6bf52634000000,
	0x11c37937e0800000, 0x16345785d8a00000, 0x1bc16d674ec80000, 0x1158e460913d0000,
	0x15af1d78b58c4000, 0x1b1ae4d6e2ef5000, 0x10f0cf064dd59200, 0x152d02c7e14af680,
	0x1a784379d99db420, 0x108b2a2c28029094, 0x14adf4b7320334b9, 0x19d971e4fe8401e7,
	0x1027e72f1f128130, 0x1431e0fae6d7217c, 0x193e5939a08ce9db, 0x1f8def8808b02452,
	0x13b8b5b5056e16b3, 0x18a6e32246c99c60, 0x1ed09bead87c0378, 0x13426172c74d822b,
	0x1812f9cf7920e2b6, 0x1e17b84357691b64, 0x12ced32a16a1b11e, 0x178287f49c4a1d66,
	0x1d6329f1c35ca4bf, 0x125dfa371a19e6f7, 0x16f578c4e0a060b5, 0x1cb2d6f618c878e3,
	0x11efc659cf7d4b8d, 0x166bb7f0435c9e71, 0x1c06a5ec5433c60d, 0x118427b3b4a05bc8,
}

// pow5bits is the bit length of 5^e (1 for e = 0); log10Pow2 and
// log10Pow5 are floor(e·log10 2) and floor(e·log10 5). All three are
// exact for the exponents a float32 reaches.
func pow5bits(e int) int  { return int(uint32(e)*1217359>>19) + 1 }
func log10Pow2(e int) int { return int(uint32(e) * 78913 >> 18) }
func log10Pow5(e int) int { return int(uint32(e) * 732923 >> 20) }

// mulShift32 is floor(m·factor / 2^shift), shift > 32.
func mulShift32(m uint32, factor uint64, shift int) uint32 {
	lo := uint64(m) * (factor & (1<<32 - 1))
	hi := uint64(m) * (factor >> 32)
	return uint32((lo>>32 + hi) >> (shift - 32))
}

// pow5Factor is the number of times 5 divides v > 0.
func pow5Factor(v uint32) int {
	n := 0
	for v%5 == 0 {
		v /= 5
		n++
	}
	return n
}

// shortestFloat32 returns the decimal d·10^e with the fewest digits
// that reads back as the nonzero finite float32 with bits b (its sign
// ignored); among those, the closest, and on a tie the even one.
func shortestFloat32(b uint32) (d uint32, e int) {
	mant, exp := b&(1<<23-1), int(b>>23&0xff)
	e2, m2 := 1-127-23-2, mant
	if exp != 0 {
		e2, m2 = exp-127-23-2, 1<<23|mant
	}
	even := m2&1 == 0

	// The reals that round to x lie strictly between mm and mp, in
	// units of 2^e2, and include the bounds when m2 is even.
	mv, mp := 4*m2, 4*m2+2
	mmShift := uint32(0)
	if mant != 0 || exp <= 1 {
		mmShift = 1 // the gap below x is as wide as above, unless x is a power of two
	}
	mm := 4*m2 - 1 - mmShift

	// Scale the three to decimal: vr, vp, vm ≈ mv, mp, mm · 2^e2 / 10^e10.
	var vr, vp, vm uint32
	var e10 int
	var vmZeros, vrZeros bool // the scaling dropped only zero digits
	var lastRemoved uint32
	if e2 >= 0 {
		q := log10Pow2(e2)
		e10 = q
		i := -e2 + q + ryuInvBits + pow5bits(q) - 1
		vr = mulShift32(mv, ryuPow5Inv[q], i)
		vp = mulShift32(mp, ryuPow5Inv[q], i)
		vm = mulShift32(mm, ryuPow5Inv[q], i)
		if q != 0 && (vp-1)/10 <= vm/10 {
			l := ryuInvBits + pow5bits(q-1) - 1
			lastRemoved = mulShift32(mv, ryuPow5Inv[q-1], -e2+q-1+l) % 10
		}
		if q <= 9 {
			switch {
			case mv%5 == 0:
				vrZeros = pow5Factor(mv) >= q
			case even:
				vmZeros = pow5Factor(mm) >= q
			case pow5Factor(mp) >= q:
				vp--
			}
		}
	} else {
		q := log10Pow5(-e2)
		e10 = q + e2
		i := -e2 - q
		j := q - (pow5bits(i) - ryuBits)
		vr = mulShift32(mv, ryuPow5[i], j)
		vp = mulShift32(mp, ryuPow5[i], j)
		vm = mulShift32(mm, ryuPow5[i], j)
		if q != 0 && (vp-1)/10 <= vm/10 {
			j = q - 1 - (pow5bits(i+1) - ryuBits)
			lastRemoved = mulShift32(mv, ryuPow5[i+1], j) % 10
		}
		switch {
		case q <= 1:
			vrZeros = true
			if even {
				vmZeros = mmShift == 1
			} else {
				vp--
			}
		case q < 31:
			vrZeros = mv&(1<<(q-1)-1) == 0
		}
	}

	// Drop digits while the interval still holds a shorter decimal.
	removed := 0
	if vmZeros || vrZeros {
		for vp/10 > vm/10 {
			vmZeros = vmZeros && vm%10 == 0
			vrZeros = vrZeros && lastRemoved == 0
			lastRemoved = vr % 10
			vr, vp, vm = vr/10, vp/10, vm/10
			removed++
		}
		if vmZeros {
			for vm%10 == 0 {
				vrZeros = vrZeros && lastRemoved == 0
				lastRemoved = vr % 10
				vr, vp, vm = vr/10, vp/10, vm/10
				removed++
			}
		}
		if vrZeros && lastRemoved == 5 && vr%2 == 0 {
			lastRemoved = 4 // exactly halfway: keep the even digit
		}
		if vr == vm && (!even || !vmZeros) || lastRemoved >= 5 {
			vr++
		}
	} else {
		for vp/10 > vm/10 {
			lastRemoved = vr % 10
			vr, vp, vm = vr/10, vp/10, vm/10
			removed++
		}
		if vr == vm || lastRemoved >= 5 {
			vr++
		}
	}
	return vr, e10 + removed
}

// The magnitudes encoding/json writes in 'f' form, as float32 bits:
// 1e-6 <= |x| < 1e21. Outside them (zero included) it writes 'e' form.
const (
	fFormMin = 0x358637bd // math.Float32bits(1e-6)
	fFormEnd = 0x6258d727 // math.Float32bits(1e21)
)

// ascii0 is eight '0' bytes, one little-endian store.
const ascii0 = 0x3030303030303030

// pow10u32[i] is 10^i.
var pow10u32 = [10]uint32{1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}

// decimalLen is the number of decimal digits of 0 < d < 1e9, from its
// bit length and one comparison that is arithmetic, not a branch.
func decimalLen(d uint32) int {
	t := bits.Len32(d) * 1233 >> 12 // floor(log10 d) or one more
	return t + 1 - int((uint64(d)-uint64(pow10u32[t]))>>63)
}

// digits9 writes 1e8 <= v < 1e9 as nine ASCII digits: the first eight
// as the bytes of lo, little-endian (the leading digit in the low
// byte), the ninth as last. The eight below the leading one are formed
// in parallel, as two four-digit lanes split into pairs and then into
// single digits, with multiply-and-shift quotients exact in range.
func digits9(v uint32) (lo uint64, last byte) {
	x := uint64(v/1e4%1e4) | uint64(v%1e4)<<32 // abcd | efgh<<32
	y := x * 10486 >> 20 & 0x7f0000007f        // x/100 per lane: ab | ef<<32
	x = y | (x-y*100)<<16                      // ab | cd<<16 | ef<<32 | gh<<48
	y = x * 103 >> 10 & 0x000f000f000f000f     // the tens digit of each pair
	x = y | (x-y*10)<<8 | ascii0               // "abcdefgh"
	return x<<8 | uint64(v/1e8+'0'), byte(x >> 56)
}

// decimalDigits returns the shortest decimal of the nonzero finite
// float32 with bits b as 0.D × 10^dp, where D is its n significant
// digits zero-padded on the right to nine, the integer v.
func decimalDigits(b uint32) (v uint32, n, dp int) {
	d, e := shortestFloat32(b)
	for d%10 == 0 {
		d /= 10
		e++
	}
	n = decimalLen(d)
	return d * pow10u32[9-n], n, n + e
}

// appendFloat32 appends a finite x as encoding/json writes a float32:
// its shortest decimal, in 'e' form (one-digit negative exponents
// unpadded) when |x| < 1e-6 or |x| >= 1e21, else in 'f' form.
//
// The 'f' form, nearly every value a reply holds, is written without a
// branch on the value: the digits are one fixed store over a run of
// '0' bytes, the digits after the decimal point are stored again one
// byte past it, and the length is computed. Bytes past that length are
// scratch, overwritten by whatever is appended next.
func appendFloat32(dst []byte, x float32) []byte {
	b := math.Float32bits(x)
	if b&^(1<<31)-fFormMin >= fFormEnd-fFormMin {
		return appendFloat32E(dst, b)
	}
	v, n, dp := decimalDigits(b) // -5 <= dp <= 21 in 'f' form
	lo, last := digits9(v)
	if cap(dst)-len(dst) < 48 {
		dst = slices.Grow(dst, 48)
	}
	w := dst[len(dst) : len(dst)+48]
	sign := int(b >> 31)
	w[0] = '-'
	o := w[sign:]
	z := max(1-dp, 0) // zeros before the digits: "0." and -dp more when dp <= 0
	h := max(dp, 0)   // digits before the point
	point := dp + z   // max(dp, 1)
	binary.LittleEndian.PutUint64(o[8:], ascii0)
	binary.LittleEndian.PutUint64(o[16:], ascii0)
	// The digits from o[0] when dp >= 1, else the "0" of "0.".
	m := uint64(int64(dp-1) >> 63)
	binary.LittleEndian.PutUint64(o[0:], lo&^m|ascii0&m)
	o[8] = last&^byte(m) | '0'&byte(m)
	o[point] = '.'
	// The digits after the first h, one byte past the point or past the
	// zeros that follow "0.".
	tail := z + h + 1
	binary.LittleEndian.PutUint64(o[tail:], lo>>uint(8*h)|uint64(last)<<uint(64-8*h))
	o[tail+8] = last
	frac := max(n-dp, 0) // digits after the point, which is written only before some
	return dst[:len(dst)+sign+point+frac+int(uint(-frac)>>63)]
}

// appendFloat32E appends a zero, or a finite float32 with bits b that
// encoding/json writes in 'e' form.
func appendFloat32E(dst []byte, b uint32) []byte {
	if b>>31 != 0 {
		dst = append(dst, '-')
	}
	if b<<1 == 0 {
		return append(dst, '0')
	}
	v, n, dp := decimalDigits(b)
	lo, last := digits9(v)
	var digits [9]byte
	binary.LittleEndian.PutUint64(digits[:], lo)
	digits[8] = last
	dst = append(dst, digits[0])
	if n > 1 {
		dst = append(dst, '.')
		dst = append(dst, digits[1:n]...)
	}
	exp, sign := dp-1, byte('+')
	if exp < 0 {
		exp, sign = -exp, '-'
	}
	dst = append(dst, 'e', sign)
	if exp >= 10 { // exp is 7..45 below 1e-6 and 21..38 from 1e21 up
		dst = append(dst, byte('0'+exp/10))
	}
	return append(dst, byte('0'+exp%10))
}
