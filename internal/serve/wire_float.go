package serve

// Reply floats are most of a reply's bytes and, through strconv, most
// of its encoding time. appendFloat32 writes them with Ryū (Adams,
// "Ryū: fast float-to-string conversion", PLDI 2018) specialised to
// float32: the same shortest, closest digits strconv.AppendFloat(x,
// 'f' or 'e', -1, 32) finds, without its generic decimal plumbing.
// TestWireEncodeMatchesJSON compares it with encoding/json.

import (
	"math"
	"math/big"
)

const (
	ryuInvBits = 59 // bits of a ryuPow5Inv entry
	ryuBits    = 61 // bits of a ryuPow5 entry
)

// ryuPow5Inv[q] is floor(2^(pow5bits(q)-1+ryuInvBits) / 5^q) + 1 and
// ryuPow5[i] is floor(5^i / 2^(pow5bits(i)-ryuBits)): 5^-q and 5^i
// scaled to 64-bit fixed point, for every q and i a float32 needs.
var ryuPow5Inv, ryuPow5 = ryuTables()

func ryuTables() (inv [31]uint64, pow [48]uint64) {
	five := big.NewInt(5)
	for q := range inv {
		v := new(big.Int).Lsh(big.NewInt(1), uint(pow5bits(q)-1+ryuInvBits))
		v.Quo(v, new(big.Int).Exp(five, big.NewInt(int64(q)), nil))
		inv[q] = v.Uint64() + 1
	}
	for i := range pow {
		v := new(big.Int).Exp(five, big.NewInt(int64(i)), nil)
		if s := pow5bits(i) - ryuBits; s > 0 {
			v.Rsh(v, uint(s))
		} else {
			v.Lsh(v, uint(-s))
		}
		pow[i] = v.Uint64()
	}
	return inv, pow
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
