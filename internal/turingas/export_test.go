package turingas

import "repro/internal/cubin"

// State is an assembler state outside the pool, so a test decides what
// its memo holds.
type State struct{ a *asm }

func NewState() *State { return &State{newAsm()} }

// Assemble assembles src as Assemble does, with s's memo.
func (s *State) Assemble(src string) (*cubin.Module, error) {
	defer s.a.reset()
	return s.a.assemble(src)
}

// Empty empties the memo.
func (s *State) Empty() { s.a.memo.reset() }

// MemoLen reports how many lines the memo holds.
func (s *State) MemoLen() int { return len(s.a.memo.lines) }
