package serve

// Reply floats are most of a reply's bytes and, through strconv, most
// of its encoding time. appendFloat32 writes them with Ryū (Adams,
// "Ryū: fast float-to-string conversion", PLDI 2018) specialised to
// float32: the same shortest, closest digits strconv.AppendFloat(x,
// 'f' or 'e', -1, 32) finds, without its generic decimal plumbing.
// TestWireEncodeMatchesJSON compares it with encoding/json.

import "math"

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

// appendFloat32 appends a finite x as encoding/json writes a float32:
// its shortest decimal, in 'e' form (one-digit negative exponents
// unpadded) when |x| < 1e-6 or |x| >= 1e21, else in 'f' form.
func appendFloat32(dst []byte, x float32) []byte {
	b := math.Float32bits(x)
	if b>>31 != 0 {
		dst = append(dst, '-')
	}
	if b<<1 == 0 {
		return append(dst, '0')
	}
	d, e := shortestFloat32(b)
	for d%10 == 0 {
		d /= 10
		e++
	}
	var buf [10]byte
	n := len(buf)
	for ; d > 0; d /= 10 {
		n--
		buf[n] = byte('0' + d%10)
	}
	digits := buf[n:]
	dp := len(digits) + e // x = 0.digits × 10^dp

	if abs := math.Float32frombits(b &^ (1 << 31)); abs < 1e-6 || abs >= 1e21 {
		dst = append(dst, digits[0])
		if len(digits) > 1 {
			dst = append(dst, '.')
			dst = append(dst, digits[1:]...)
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
	switch {
	case dp <= 0:
		dst = append(dst, '0', '.')
		for ; dp < 0; dp++ {
			dst = append(dst, '0')
		}
		return append(dst, digits...)
	case dp >= len(digits):
		dst = append(dst, digits...)
		for i := len(digits); i < dp; i++ {
			dst = append(dst, '0')
		}
		return dst
	default:
		dst = append(dst, digits[:dp]...)
		dst = append(dst, '.')
		return append(dst, digits[dp:]...)
	}
}
