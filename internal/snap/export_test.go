package snap

import "sde/internal/expr"

// SizeHint is the buffer capacity Encode would start with for s.
func (s *Snapshot) SizeHint(b *expr.Builder) (int, error) {
	vars := b.Vars()
	t := new(exprTable)
	words, err := s.collectExprs(t, b, vars)
	if err != nil {
		return 0, err
	}
	return s.sizeHint(t, vars, words), nil
}
