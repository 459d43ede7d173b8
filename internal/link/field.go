package link

import "strings"

// The HTTP/1.1 field grammar both halves of the hop parse by hand: the
// front door's request heads and Transport's answers. One copy, so the
// two cannot drift; FuzzFrontDoorHead and FuzzHopResponse hold it to
// net/http from either side.

// parseLength reads a Content-Length of 1 to 8 digits, at most limit.
//
//loadctl:hotpath
func parseLength(v string, limit int) (int, bool) {
	if v == "" || len(v) > 8 {
		return 0, false
	}
	n := 0
	for i := 0; i < len(v); i++ {
		if v[i] < '0' || v[i] > '9' {
			return 0, false
		}
		n = n*10 + int(v[i]-'0')
	}
	return n, n <= limit
}

// trimOWS drops the optional whitespace around a field value.
//
//loadctl:hotpath
func trimOWS(s string) string {
	for s != "" && (s[0] == ' ' || s[0] == '\t') {
		s = s[1:]
	}
	for s != "" && (s[len(s)-1] == ' ' || s[len(s)-1] == '\t') {
		s = s[:len(s)-1]
	}
	return s
}

// isToken reports whether s is a non-empty RFC 9110 token.
//
//loadctl:hotpath
func isToken(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' {
			continue
		}
		if strings.IndexByte("!#$%&'*+-.^_`|~", c) < 0 {
			return false
		}
	}
	return true
}

// isFieldValue reports whether s holds only field-value bytes: visible
// ASCII, space, tab and obs-text.
//
//loadctl:hotpath
func isFieldValue(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' && c != '\t' || c == 0x7f {
			return false
		}
	}
	return true
}
