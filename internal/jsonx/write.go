package jsonx

import "unicode/utf8"

// AppendString appends s quoted as json.Marshal quotes it: HTML
// characters, control characters, U+2028 and U+2029 escaped, invalid
// UTF-8 written as \ufffd.
func AppendString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendIndent appends the compact, valid JSON value src as json.Indent
// lays it out with an empty prefix, for a value that starts depth
// levels deep: each element on a line of its own, indent repeated once
// per level, empty containers kept as {} and [], and string contents
// copied as they are.
func AppendIndent(dst, src []byte, indent string, depth int) []byte {
	newline := func(dst []byte) []byte {
		dst = append(dst, '\n')
		for i := 0; i < depth; i++ {
			dst = append(dst, indent...)
		}
		return dst
	}
	for i := 0; i < len(src); i++ {
		switch c := src[i]; c {
		case '"':
			j := i + 1
			for src[j] != '"' {
				if src[j] == '\\' {
					j++
				}
				j++
			}
			dst = append(dst, src[i:j+1]...)
			i = j
		case '{', '[':
			dst = append(dst, c)
			if i+1 < len(src) && src[i+1] == c+2 { // '}' or ']'
				dst = append(dst, c+2)
				i++
				continue
			}
			depth++
			dst = newline(dst)
		case '}', ']':
			depth--
			dst = append(newline(dst), c)
		case ',':
			dst = newline(append(dst, c))
		case ':':
			dst = append(dst, ':', ' ')
		default:
			dst = append(dst, c)
		}
	}
	return dst
}
