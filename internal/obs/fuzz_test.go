package obs

import (
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzPrometheusLabelEscape renders a counter whose label carries an
// arbitrary valid UTF-8 value and parses the sample line back.  The
// escaped value must stay on the sample's line (no raw newline), end at
// the first unescaped quote, and unescape to the input.
//
// Run it with: go test -run '^$' -fuzz FuzzPrometheusLabelEscape -fuzztime 15s ./internal/obs
func FuzzPrometheusLabelEscape(f *testing.F) {
	for _, v := range []string{"a\\b\"c\nd", "fft", "+Inf", "a", ""} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v string) {
		if !utf8.ValidString(v) {
			return // the exposition format is UTF-8 text
		}
		reg := NewRegistry()
		reg.Counter("fuzz_total", "", L("name", v)).Inc()
		var b strings.Builder
		if err := WritePrometheus(&b, reg.Snapshot()); err != nil {
			t.Fatal(err)
		}
		const prefix = `fuzz_total{name="`
		var line string
		for _, l := range strings.Split(b.String(), "\n") {
			if strings.HasPrefix(l, prefix) {
				line = l[len(prefix):]
			}
		}
		if line == "" {
			t.Fatalf("no sample line for value %q in:\n%s", v, b.String())
		}
		var got strings.Builder
		for i := 0; ; i++ {
			if i == len(line) {
				t.Fatalf("label value %q: no closing quote on the sample line %q", v, line)
			}
			c := line[i]
			if c == '"' {
				if rest := line[i+1:]; rest != "} 1" {
					t.Fatalf("label value %q: unescaped quote ends the label early; rest of line %q", v, rest)
				}
				break
			}
			if c != '\\' {
				got.WriteByte(c)
				continue
			}
			i++
			if i == len(line) {
				t.Fatalf("label value %q: dangling backslash in %q", v, line)
			}
			switch line[i] {
			case '\\', '"':
				got.WriteByte(line[i])
			case 'n':
				got.WriteByte('\n')
			default:
				t.Fatalf("label value %q: unknown escape \\%c in %q", v, line[i], line)
			}
		}
		if got.String() != v {
			t.Fatalf("label value %q unescapes to %q", v, got.String())
		}
	})
}
