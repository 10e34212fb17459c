// Package cubin defines the binary kernel-module container produced by
// the assembler and loaded by the simulator — the counterpart of the
// .cubin files TuringAs emits for the CUDA runtime (paper Section 5.3).
package cubin

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/sass"
)

// ParamBase is the constant-bank-0 offset at which kernel parameters
// start, matching the c[0x0][0x160] convention the paper shows.
const ParamBase = 0x160

// Kernel is one assembled SASS kernel.
type Kernel struct {
	// Name identifies the kernel within its module.
	Name string
	// NumRegs is the per-thread regular-register requirement.
	NumRegs int
	// SmemBytes is the static shared-memory requirement per block.
	SmemBytes int
	// ParamBytes is the size of the kernel-parameter area in constant
	// bank 0 starting at ParamBase.
	ParamBytes int
	// BarCount is the number of block-wide barriers used (BAR.SYNC).
	BarCount int
	// Code is the encoded instruction stream.
	Code []sass.Word
}

// Decode returns the decoded instruction stream.
func (k *Kernel) Decode() ([]sass.Inst, error) {
	return sass.DecodeAll(k.Code)
}

// Module is a set of kernels, the unit of assembly and loading.
type Module struct {
	Kernels []Kernel
}

const (
	magic   = 0x43554247 // "CUBG"
	version = 1
)

// WriteTo serializes the module.
func (m *Module) WriteTo(w io.Writer) (int64, error) {
	var buf bytes.Buffer
	wr := func(v any) {
		// bytes.Buffer writes never fail.
		_ = binary.Write(&buf, binary.LittleEndian, v)
	}
	wr(uint32(magic))
	wr(uint32(version))
	wr(uint32(len(m.Kernels)))
	for _, k := range m.Kernels {
		name := []byte(k.Name)
		wr(uint32(len(name)))
		buf.Write(name)
		wr(uint32(k.NumRegs))
		wr(uint32(k.SmemBytes))
		wr(uint32(k.ParamBytes))
		wr(uint32(k.BarCount))
		wr(uint32(len(k.Code)))
		for _, word := range k.Code {
			wr(word.Lo)
			wr(word.Hi)
		}
	}
	n, err := w.Write(buf.Bytes())
	return int64(n), err
}

// Read deserializes a module, validating the header and that every
// instruction decodes.
func Read(r io.Reader) (*Module, error) {
	var hdr struct {
		Magic, Version, NumKernels uint32
	}
	if err := binary.Read(r, binary.LittleEndian, &hdr); err != nil {
		return nil, fmt.Errorf("cubin: header: %w", err)
	}
	if hdr.Magic != magic {
		return nil, fmt.Errorf("cubin: bad magic 0x%08x", hdr.Magic)
	}
	if hdr.Version != version {
		return nil, fmt.Errorf("cubin: unsupported version %d", hdr.Version)
	}
	m := &Module{}
	for i := uint32(0); i < hdr.NumKernels; i++ {
		var nameLen uint32
		if err := binary.Read(r, binary.LittleEndian, &nameLen); err != nil {
			return nil, fmt.Errorf("cubin: kernel %d: %w", i, err)
		}
		if nameLen > 1<<16 {
			return nil, fmt.Errorf("cubin: kernel %d: absurd name length %d", i, nameLen)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(r, name); err != nil {
			return nil, fmt.Errorf("cubin: kernel %d name: %w", i, err)
		}
		var meta struct {
			NumRegs, SmemBytes, ParamBytes, BarCount, CodeLen uint32
		}
		if err := binary.Read(r, binary.LittleEndian, &meta); err != nil {
			return nil, fmt.Errorf("cubin: kernel %q meta: %w", name, err)
		}
		if meta.CodeLen > 1<<24 {
			return nil, fmt.Errorf("cubin: kernel %q: absurd code length %d", name, meta.CodeLen)
		}
		code := make([]sass.Word, meta.CodeLen)
		for j := range code {
			var lohi [2]uint64
			if err := binary.Read(r, binary.LittleEndian, &lohi); err != nil {
				return nil, fmt.Errorf("cubin: kernel %q code: %w", name, err)
			}
			code[j] = sass.Word{Lo: lohi[0], Hi: lohi[1]}
		}
		k := Kernel{
			Name:       string(name),
			NumRegs:    int(meta.NumRegs),
			SmemBytes:  int(meta.SmemBytes),
			ParamBytes: int(meta.ParamBytes),
			BarCount:   int(meta.BarCount),
			Code:       code,
		}
		if _, err := k.Decode(); err != nil {
			return nil, fmt.Errorf("cubin: kernel %q: %w", k.Name, err)
		}
		m.Kernels = append(m.Kernels, k)
	}
	return m, nil
}
