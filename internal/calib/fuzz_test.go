package calib

// FuzzCalibReference holds the codecs to the canonical-form contract on
// arbitrary bytes: decoding never panics, and anything either decoder
// accepts re-encodes to the exact input bytes — decode→encode is the
// identity on the accepted language, not merely a fixed point reached
// after a round trip. There is therefore no second spelling of any
// reference the loader would accept.

import (
	"bytes"
	"testing"
)

func FuzzCalibReference(f *testing.F) {
	// Seed with both committed reference files plus near-miss framing.
	for _, name := range []string{"apps.csv", "paper.csv"} {
		data, err := embedded.ReadFile("testdata/" + name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	apps := appsBanner + "\n" + appsHeader + "\n"
	paper := paperBanner + "\n" + paperHeader + "\n"
	for _, doc := range []string{
		apps,
		apps + "GTX570,MM,100,1.25\n",
		apps + "GTX570,MM,007,1.25\n",
		apps + "GTX570,MM,100,1.50\n",
		"arch,app,cycles,speedup\n",
		paper,
		paper + "2,GTX570,L1Latency,125,Figure 2 (Fermi)\n",
		paper + "12,GTX570,algorithm-related,1.46,Figure 12, first panel\n",
		paper + "13,X,m,0.9,s\n13,X,m,0.9,s\n",
		paper + "11,X,m,1,s\n",
		paper + "2,X,m,0,s\n",
		paper + "2,X,m,1e3,s\n",
		paper + "2,,m,1,s\n",
		paper + "2,X,m,1,s\r\n",
	} {
		f.Add([]byte(doc))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if apps, err := DecodeApps(data); err == nil {
			if enc := EncodeApps(apps); !bytes.Equal(enc, data) {
				t.Errorf("apps decode->encode not identity:\nin:  %q\nout: %q", data, enc)
			}
		}
		if vals, err := DecodePaper(data); err == nil {
			if enc := EncodePaper(vals); !bytes.Equal(enc, data) {
				t.Errorf("paper decode->encode not identity:\nin:  %q\nout: %q", data, enc)
			}
		}
	})
}
