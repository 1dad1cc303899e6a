// Package report renders benchmark results as aligned text tables,
// ASCII charts, and CSV — the "full disclosure" output formats the
// paper asks for: curves and distributions, never bare means.
package report

import (
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/metrics"
)

// Table is a simple aligned-column text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row of cells (formatted by the caller).
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// WriteTo renders the table.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = runeLen(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && runeLen(c) > widths[i] {
				widths[i] = runeLen(c)
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&sb, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			if pad := widths[i] - runeLen(c); pad > 0 && i < len(cells)-1 {
				sb.WriteString(strings.Repeat(" ", pad))
			}
		}
		sb.WriteByte('\n')
	}
	line(t.Headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	sb.WriteString(strings.Repeat("-", total))
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	n, err := io.WriteString(w, sb.String())
	return int64(n), err
}

// runeLen counts runes (the coverage markers are multi-byte).
func runeLen(s string) int { return len([]rune(s)) }

// CSV renders headers and rows as comma-separated values, quoting
// cells containing commas.
func CSV(w io.Writer, headers []string, rows [][]string) error {
	writeLine := func(cells []string) error {
		for i, c := range cells {
			if i > 0 {
				if _, err := io.WriteString(w, ","); err != nil {
					return err
				}
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			if _, err := io.WriteString(w, c); err != nil {
				return err
			}
		}
		_, err := io.WriteString(w, "\n")
		return err
	}
	if err := writeLine(headers); err != nil {
		return err
	}
	for _, row := range rows {
		if err := writeLine(row); err != nil {
			return err
		}
	}
	return nil
}

// Chart renders an ASCII X/Y chart of one or more series sharing an X
// axis. It is deliberately plain: data files for real plotting come
// from CSV; the chart is for eyeballing shapes (cliffs, S-curves) in
// a terminal.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	X      []float64
	Series []ChartSeries
	// Height is the number of chart rows (default 16).
	Height int
	// LogY plots log10 of the values (throughput cliffs span decades).
	LogY bool
}

// ChartSeries is one named curve.
type ChartSeries struct {
	Name   string
	Y      []float64
	Marker byte
}

// WriteTo renders the chart.
func (c *Chart) WriteTo(w io.Writer) (int64, error) {
	height := c.Height
	if height <= 0 {
		height = 16
	}
	width := len(c.X)
	if width == 0 {
		n, err := fmt.Fprintf(w, "%s: (no data)\n", c.Title)
		return int64(n), err
	}
	// Y range over all series.
	var lo, hi float64
	first := true
	val := func(v float64) float64 {
		if !c.LogY {
			return v
		}
		if v <= 0 {
			return 0
		}
		return log10(v)
	}
	for _, s := range c.Series {
		for _, v := range s.Y {
			fv := val(v)
			if first {
				lo, hi = fv, fv
				first = false
				continue
			}
			if fv < lo {
				lo = fv
			}
			if fv > hi {
				hi = fv
			}
		}
	}
	if hi == lo {
		hi = lo + 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for _, s := range c.Series {
		marker := s.Marker
		if marker == 0 {
			marker = '*'
		}
		for x, v := range s.Y {
			if x >= width {
				break
			}
			fv := val(v)
			row := int((fv - lo) / (hi - lo) * float64(height-1))
			grid[height-1-row][x] = marker
		}
	}
	var sb strings.Builder
	if c.Title != "" {
		fmt.Fprintf(&sb, "%s\n", c.Title)
	}
	for i, row := range grid {
		y := hi - (hi-lo)*float64(i)/float64(height-1)
		label := y
		if c.LogY {
			label = pow10(y)
		}
		fmt.Fprintf(&sb, "%10.1f |%s\n", label, string(row))
	}
	fmt.Fprintf(&sb, "%10s +%s\n", "", strings.Repeat("-", width))
	fmt.Fprintf(&sb, "%10s  %-*s\n", "", width, c.XLabel)
	for _, s := range c.Series {
		marker := s.Marker
		if marker == 0 {
			marker = '*'
		}
		fmt.Fprintf(&sb, "%10s  %c = %s\n", "", marker, s.Name)
	}
	n, err := io.WriteString(w, sb.String())
	return int64(n), err
}

func log10(v float64) float64 { return math.Log10(v) }

func pow10(v float64) float64 { return math.Pow(10, v) }

// Histogram renders the paper's Figure 3 format: one bar per log2
// bucket, labeled with both bucket number and human latency.
func Histogram(w io.Writer, title string, h *metrics.Histogram) error {
	if _, err := fmt.Fprintf(w, "%s  (n=%d, mean=%s, p50<=%s, p99<=%s)\n",
		title, h.Count(), fmtNs(int64(h.Mean())), fmtNs(h.Percentile(50)), fmtNs(h.Percentile(99))); err != nil {
		return err
	}
	pct := h.Percentages()
	for b := 0; b < metrics.NumBuckets; b++ {
		if h.BucketCount(b) == 0 {
			continue
		}
		bar := strings.Repeat("#", int(pct[b]+0.5))
		if _, err := fmt.Fprintf(w, "  %2d %8s %6.2f%% %s\n",
			b, metrics.FormatLabel(b), pct[b], bar); err != nil {
			return err
		}
	}
	return nil
}

// fmtNs renders nanoseconds with a human unit.
func fmtNs(ns int64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.1fms", float64(ns)/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fus", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}
