package obsv

import (
	"bufio"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ExpoFamily is one metric family recovered from a text exposition by
// ParseExposition: its declared type and its samples keyed by
// "name{labels}".
type ExpoFamily struct {
	// Name is the family name (without _bucket/_sum/_count suffixes).
	Name string
	// Type is the declared `# TYPE` ("counter", "gauge", "histogram").
	Type string
	// Help is the declared `# HELP` text, escapes undone.
	Help string
	// Samples maps the full sample key (metric name + rendered labels) to the
	// sample value.
	Samples map[string]float64
}

// ParseExposition parses a Prometheus text-format (0.0.4) payload, validating
// well-formedness as it goes:
//
//   - every sample line belongs to a family declared by a preceding
//     `# TYPE` line, and every `# TYPE` is preceded by its `# HELP`;
//   - metric and label names match the Prometheus charset;
//   - no family or sample key is declared twice;
//   - histogram families expose _bucket/_sum/_count series, bucket counts are
//     cumulative (non-decreasing in le order) and end at le="+Inf".
//
// It returns the families keyed by name.  ValidateExposition is the
// check-only form.  This is the validator behind ci/promlint.sh and the
// race-hammer server test — a torn histogram or a malformed name fails here.
func ParseExposition(payload string) (map[string]*ExpoFamily, error) {
	families := map[string]*ExpoFamily{}
	help := map[string]string{} // each family's # HELP text
	sc := bufio.NewScanner(strings.NewReader(payload))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			kind, name, rest, err := parseComment(line)
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			switch kind {
			case "HELP":
				if _, dup := help[name]; dup {
					return nil, fmt.Errorf("line %d: duplicate # HELP for %q", lineNo, name)
				}
				help[name] = helpUnescaper.Replace(rest)
			case "TYPE":
				h, ok := help[name]
				if !ok {
					return nil, fmt.Errorf("line %d: # TYPE %s without preceding # HELP", lineNo, name)
				}
				if _, ok := families[name]; ok {
					return nil, fmt.Errorf("line %d: duplicate # TYPE for %q", lineNo, name)
				}
				if rest != TypeCounter && rest != TypeGauge && rest != TypeHistogram && rest != "summary" && rest != "untyped" {
					return nil, fmt.Errorf("line %d: unknown metric type %q", lineNo, rest)
				}
				families[name] = &ExpoFamily{Name: name, Type: rest, Help: h, Samples: map[string]float64{}}
			}
			continue
		}
		key, value, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		base := sampleFamily(key)
		fam, ok := families[base]
		if !ok {
			return nil, fmt.Errorf("line %d: sample %q has no preceding # TYPE", lineNo, key)
		}
		if _, dup := fam.Samples[key]; dup {
			return nil, fmt.Errorf("line %d: duplicate sample %q", lineNo, key)
		}
		fam.Samples[key] = value
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for name, fam := range families {
		if fam.Type == TypeHistogram {
			if err := validateHistogram(name, fam); err != nil {
				return nil, err
			}
		}
	}
	return families, nil
}

// helpUnescaper undoes escapeHelp.
var helpUnescaper = strings.NewReplacer(`\\`, `\`, `\n`, "\n")

// ValidateExposition reports whether payload is a well-formed text
// exposition.
func ValidateExposition(payload string) error {
	_, err := ParseExposition(payload)
	return err
}

func parseComment(line string) (kind, name, rest string, err error) {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 3 || fields[0] != "#" {
		return "", "", "", fmt.Errorf("malformed comment line %q", line)
	}
	kind, name = fields[1], fields[2]
	if kind != "HELP" && kind != "TYPE" {
		return "", "", "", fmt.Errorf("unknown comment kind %q", kind)
	}
	if !validMetricName(name) {
		return "", "", "", fmt.Errorf("invalid metric name %q", name)
	}
	if len(fields) == 4 {
		rest = fields[3]
	}
	return kind, name, rest, nil
}

// parseSample splits "name{labels} value" into its key and value, validating
// the name, the label syntax, and the numeric value.
func parseSample(line string) (key string, value float64, err error) {
	sp := strings.LastIndexByte(line, ' ')
	if sp < 0 {
		return "", 0, fmt.Errorf("sample line %q has no value", line)
	}
	key, valText := line[:sp], line[sp+1:]
	name := key
	if i := strings.IndexByte(key, '{'); i >= 0 {
		name = key[:i]
		if !strings.HasSuffix(key, "}") {
			return "", 0, fmt.Errorf("unterminated label set in %q", key)
		}
		if err := validateLabelSyntax(key[i+1 : len(key)-1]); err != nil {
			return "", 0, fmt.Errorf("sample %q: %w", key, err)
		}
	}
	if !validMetricName(name) {
		return "", 0, fmt.Errorf("invalid metric name %q", name)
	}
	switch valText {
	case "+Inf":
		return key, math.Inf(1), nil
	case "-Inf":
		return key, math.Inf(-1), nil
	case "NaN":
		return key, math.NaN(), nil
	}
	value, err = strconv.ParseFloat(valText, 64)
	if err != nil {
		return "", 0, fmt.Errorf("sample %q: bad value %q", key, valText)
	}
	return key, value, nil
}

// validateLabelSyntax checks `k="v",k="v"` pairs, honouring escapes inside
// quoted values.
func validateLabelSyntax(s string) error {
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq <= 0 {
			return fmt.Errorf("malformed label pair near %q", s)
		}
		name := s[:eq]
		if name != "le" && name != "quantile" && !validLabelName(name) {
			return fmt.Errorf("invalid label name %q", name)
		}
		s = s[eq+1:]
		if len(s) == 0 || s[0] != '"' {
			return fmt.Errorf("label %q value not quoted", name)
		}
		s = s[1:]
		end := -1
		for i := 0; i < len(s); i++ {
			if s[i] == '\\' {
				i++
				continue
			}
			if s[i] == '"' {
				end = i
				break
			}
		}
		if end < 0 {
			return fmt.Errorf("label %q value unterminated", name)
		}
		s = s[end+1:]
		if len(s) > 0 {
			if s[0] != ',' {
				return fmt.Errorf("expected ',' after label %q", name)
			}
			s = s[1:]
		}
	}
	return nil
}

// sampleFamily maps a sample key to its family name, stripping labels and
// the histogram/summary series suffixes.
func sampleFamily(key string) string {
	name := key
	if i := strings.IndexByte(name, '{'); i >= 0 {
		name = name[:i]
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suffix) {
			return name[:len(name)-len(suffix)]
		}
	}
	return name
}

// validateHistogram checks that every labelled series of a histogram family
// has cumulative, +Inf-terminated buckets whose total matches _count — the
// "no torn histogram" property the race tests hammer on.
func validateHistogram(name string, fam *ExpoFamily) error {
	type series struct {
		bounds []float64
		counts []float64
		hasInf bool
		count  float64
		hasCnt bool
	}
	byLabels := map[string]*series{}
	get := func(labels string) *series {
		s := byLabels[labels]
		if s == nil {
			s = &series{}
			byLabels[labels] = s
		}
		return s
	}
	for key, value := range fam.Samples {
		metric, labels := key, ""
		if i := strings.IndexByte(key, '{'); i >= 0 {
			metric, labels = key[:i], key[i+1:len(key)-1]
		}
		switch {
		case metric == name+"_bucket":
			bound, rest, err := extractLE(labels)
			if err != nil {
				return fmt.Errorf("histogram %s: %w", name, err)
			}
			s := get(rest)
			if math.IsInf(bound, 1) {
				s.hasInf = true
			}
			s.bounds = append(s.bounds, bound)
			s.counts = append(s.counts, value)
		case metric == name+"_sum":
		case metric == name+"_count":
			s := get(labels)
			s.count, s.hasCnt = value, true
		default:
			return fmt.Errorf("histogram %s: unexpected series %q", name, key)
		}
	}
	for labels, s := range byLabels {
		if !s.hasInf {
			return fmt.Errorf("histogram %s{%s}: no le=\"+Inf\" bucket", name, labels)
		}
		if !s.hasCnt {
			return fmt.Errorf("histogram %s{%s}: missing _count", name, labels)
		}
		sort.Sort(&boundSort{s.bounds, s.counts})
		prev := -1.0
		for i, c := range s.counts {
			if c < prev {
				return fmt.Errorf("histogram %s{%s}: bucket counts not cumulative at le=%g", name, labels, s.bounds[i])
			}
			prev = c
		}
		if s.counts[len(s.counts)-1] != s.count {
			return fmt.Errorf("histogram %s{%s}: +Inf bucket %g != _count %g", name, labels, s.counts[len(s.counts)-1], s.count)
		}
	}
	return nil
}

// extractLE pulls the le label out of a bucket label set, returning the bound
// and the remaining labels (the series identity).
func extractLE(labels string) (float64, string, error) {
	parts := strings.Split(labels, ",")
	rest := make([]string, 0, len(parts))
	bound := math.NaN()
	for _, p := range parts {
		if strings.HasPrefix(p, `le="`) && strings.HasSuffix(p, `"`) {
			text := p[4 : len(p)-1]
			if text == "+Inf" {
				bound = math.Inf(1)
			} else {
				v, err := strconv.ParseFloat(text, 64)
				if err != nil {
					return 0, "", fmt.Errorf("bad le bound %q", text)
				}
				bound = v
			}
			continue
		}
		rest = append(rest, p)
	}
	if math.IsNaN(bound) {
		return 0, "", fmt.Errorf("bucket sample without le label (%q)", labels)
	}
	return bound, strings.Join(rest, ","), nil
}

type boundSort struct {
	bounds []float64
	counts []float64
}

func (s *boundSort) Len() int           { return len(s.bounds) }
func (s *boundSort) Less(i, j int) bool { return s.bounds[i] < s.bounds[j] }
func (s *boundSort) Swap(i, j int) {
	s.bounds[i], s.bounds[j] = s.bounds[j], s.bounds[i]
	s.counts[i], s.counts[j] = s.counts[j], s.counts[i]
}
