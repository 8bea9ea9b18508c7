package experiment

import (
	"fmt"
	"io"
	"strings"
)

// WriteComparisonReport renders a Fig.-4-style report for one setup: the
// averaged (time, loss, accuracy) series per scheme plus the Table-II/III/IV
// rows, as markdown.
func WriteComparisonReport(w io.Writer, c *Comparison) error {
	if _, err := fmt.Fprintf(w, "## %v — pricing-scheme comparison (Fig. 4)\n\n", c.Env.ID); err != nil {
		return err
	}
	for _, s := range c.Schemes {
		if _, err := fmt.Fprintf(w, "### %v (spent %.2f of budget %.2f)\n\n",
			s.Scheme, s.Outcome.Spent, c.Env.Params.B); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w, "| time (s) | global loss | test accuracy |"); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w, "|---:|---:|---:|"); err != nil {
			return err
		}
		for _, pt := range s.Points {
			if _, err := fmt.Fprintf(w, "| %.1f | %.4f | %.4f |\n",
				pt.Elapsed.Seconds(), pt.Loss, pt.Accuracy); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}

	lossTarget := c.AdaptiveLossTarget()
	accTarget := c.AdaptiveAccuracyTarget()
	if _, err := fmt.Fprintf(w,
		"### Time to target loss %.4f (Table II) and accuracy %.4f (Table III)\n\n",
		lossTarget, accTarget); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "| scheme | time to loss | time to accuracy |"); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "|---|---:|---:|"); err != nil {
		return err
	}
	tl := c.TimesToLoss(lossTarget)
	ta := c.TimesToAccuracy(accTarget)
	for i := range tl {
		if _, err := fmt.Fprintf(w, "| %v | %s | %s |\n",
			tl[i].Scheme, fmtTarget(tl[i]), fmtTarget(ta[i])); err != nil {
			return err
		}
	}
	overU, overW, err := c.UtilityGains()
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w,
		"\n### Total client utility gain (Table IV)\n\n"+
			"proposed − uniform: %.2f; proposed − weighted: %.2f\n\n", overU, overW)
	return err
}

func fmtTarget(t TimeToTarget) string {
	if !t.OK {
		return "not reached"
	}
	return fmt.Sprintf("%.1f s", t.Elapsed.Seconds())
}

// WriteSweepReport renders a Figs.-5/6/7-style parameter sweep as markdown.
func WriteSweepReport(w io.Writer, kind SweepKind, points []SweepPoint, trained bool) error {
	if _, err := fmt.Fprintf(w, "## Impact of %v\n\n", kind); err != nil {
		return err
	}
	header := "| value | server bound | mean q | negative payments |"
	rule := "|---:|---:|---:|---:|"
	if trained {
		header = "| value | final loss | final accuracy | server bound | mean q | negative payments |"
		rule = "|---:|---:|---:|---:|---:|---:|"
	}
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, rule); err != nil {
		return err
	}
	for _, p := range points {
		var err error
		if trained {
			_, err = fmt.Fprintf(w, "| %.4g | %.4f | %.4f | %.4g | %.3f | %d |\n",
				p.Value, p.FinalLoss, p.FinalAccuracy, p.ServerObj, p.MeanQ, p.NegativePayments)
		} else {
			_, err = fmt.Fprintf(w, "| %.4g | %.4g | %.3f | %d |\n",
				p.Value, p.ServerObj, p.MeanQ, p.NegativePayments)
		}
		if err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// WriteSeriesCSV emits a scheme's trajectory as CSV (time,loss,accuracy),
// convenient for external plotting of the Fig. 4 curves.
func WriteSeriesCSV(w io.Writer, s *SchemeRun) error {
	if _, err := fmt.Fprintln(w, "time_s,loss,accuracy"); err != nil {
		return err
	}
	for _, pt := range s.Points {
		if _, err := fmt.Fprintf(w, "%.3f,%.6f,%.6f\n",
			pt.Elapsed.Seconds(), pt.Loss, pt.Accuracy); err != nil {
			return err
		}
	}
	return nil
}

// Banner renders a section separator for CLI output.
func Banner(title string) string {
	line := strings.Repeat("=", len(title)+8)
	return fmt.Sprintf("%s\n=== %s ===\n%s", line, title, line)
}
