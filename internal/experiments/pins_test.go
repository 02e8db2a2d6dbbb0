package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// renderPins are the SHA-256 digests of every registered experiment's
// Render() and Summary() at Default() with SRAMLimitBytes 4096 — the
// configuration of `ibexperiments -run all -sram-limit 4096`. The
// experiments are deterministic in (FleetSeed, serial), so any change to
// a digest means a figure or a table changed.
var renderPins = map[string]struct{ render, summary string }{
	"abl-captures": {"1f4f0548aea2b6b690786fc45e1e40153990bb2ed9d0084d466ceb891a7066ef", "8ce7003fc5153dbad36eb8bf882ff906b0cc6abc0269f8ba22eb75549dc67203"},
	"abl-cipher":   {"2f7756187c9c5a1413c91247d2ba684a119dae84689ee52459dc1c8053974542", "064b575df93622f035dd10194e9f52f0aec051cc79211e76c6474d56b3108e1e"},
	"abl-eccorder": {"64f7e82da3e92cfbc373506f2194fdc6c557d272f40cae573a98ca6971be2ce3", "8ff7daa8d23ecb1481f2570531dfd4460b1430da49cf12bd3312284d89df07b8"},
	"abl-soft":     {"fb3542e5e62d9cdcfde37feed262444e1e09a26087aff8df0644ca3bb7294436", "8400c70f61425ac291d2a02d3e24b921e5c4e77faaa41846c6de6c1f9d9d5d19"},
	"fig1":         {"73cbf8a27bc0100cec736102d8f3bdae8d91728cafa0290c0404c4d292c20e1b", "39aa5e9ec58f056c9a29bccf3b6b75d61f55627e8ae8cd89ea1fbfec599b2d06"},
	"fig10":        {"4c20f0473ce4ac3d99f05ee8c1139a9adf054979e0b06ae8af1fc983a9d27d8f", "8e8aafe0b8bc55a0bcf6e041c2d849d0a034342f1f7a791fe585bdb8e6a59ac4"},
	"fig11":        {"a7670f642d3cae459d5d0de4175f27ca03f20f342d0b8158913021eac5b2b282", "542cf473ce6c23b3ced281847581311d5c2db0cd776fd02cdc0b34cd1788b191"},
	"fig12":        {"70836be894ea62b77046b7f67588f729147d0deaf89af4c6aeb37887c9d46da8", "d8b33134a7a6ed462678059792dbd8167d7098b07b0a6e4c6142d7713c4b5d96"},
	"fig14":        {"dc52799cef4c399c2b9fabe773315efdceaae1ca974b142ba0a1f75862e7f25a", "1f941a75e2a49b7c0205a3fdddf8efed8b432bb065f217a2171a14492e19dcc5"},
	"fig15":        {"d0f16b68e0a4e5e7d4d32208e10a532c2d16e02603c5542e666f6c49a0a869c2", "208b8498e7670ab38d3c2e5d60264d8ecdc9676a15d0672ed4d25dfd2cf6d2b6"},
	"fig2":         {"34119a77dbb285f9cecedc3e80c4c3e271ac66f08e574b8416ca00a7c411f3ed", "72a706f52fb9faa62f2202537532004dc4762f0fa42153361a4f23464cc659a9"},
	"fig3":         {"911e269f07322104e2033c2f494e269095c9397c0adaa9f12ce31ffc1cb42078", "b62fbb2dd37cb981ef1dcbc13c1c4189dd0092c0cb2b5330f26439c0b678dff6"},
	"fig6":         {"03868d77cf92c9c64ccf2324cb5e4447ff5043dee95519558c97f487c3539afb", "a107f849947e08af25a0c0136cb93d4ddf483fb18a78f964ca1dd2f7712c498e"},
	"fig7":         {"43f241fbd6e96ec0d5edaf795e617bc2e422aabf22e5e58ab6b47eca8c567778", "29f73c304ef2fa964687d6090b73fada3bcde7d965ad764c52264d2e5f069f05"},
	"fig8":         {"859ec664425b0528c24b8cdfa2180485758a5b73b13eeaa1988362e5f166689b", "ed8c5b65fa9af61664441831ff91d4701d9e47750b46b839d2435547d12f3a1a"},
	"fig9":         {"f5fe9bf66db9080a0d8795af3adef22bfbd57578a132d2fb58d7b4e90b75083b", "3abf5f8790049d1beaf73d751251b32b419ec620c8b97247182d44b6777337af"},
	"fwop":         {"a5941e7d2177bc9f5ced1b628b6c08916a13b984fa2b12ee1cc2b1bcf95fc7d8", "52032fdaa65b9259ba267c2f21d7da56eb5df3fff8794ce873413c7e9d4cd2f0"},
	"modelcheck":   {"9ff6eb38c46544cbb74eaa9cb23f0fb331ca3915528ab839f0ec51b6c98dd11a", "f62f93d8f6b49df3a17dfd153f9e58f1695817780140c78b10f145e040275be2"},
	"sec514":       {"09aabc90f4e291d3f1433a2655c20688db7f79ab362bbd28cb42394af532a259", "f1d4f42513a6a4eb340f8defa8241505e6be34dc9191cc80390089718d8b5d4f"},
	"sec53":        {"61e79e0d6300d2391747c8818051a888e23b269d86bbbd250828480f924c9008", "c6fe35653440944bf486dae62d2c2e893c779c887ef5dd81dc1cdcdfeed984f1"},
	"sec6":         {"19008ad8c658110c14213f92fc86b2d66cea250739953476de36f5319c097744", "7be91d6bfb0e45003a0dbae3b35a796b915765d951ce90265ec3d2788888d183"},
	"sec74":        {"9e429bbdbe5d4cb5ee898df0a3faa2642efa956c4d92918c4fce0120b927e0fb", "91454846bdcd13ed1cbc650ac6d401d600180d4230e59ca1194255bbe73494a7"},
	"tab2":         {"6128507634374736ab9d31085ae4deaa4175207e5e9f1e2fbb0d2fa04df1c0eb", "c072ff70031e5aee9fc24b7f2f6ff92fcde96830e30e5df881300921dbd15f04"},
	"tab3":         {"de728a2f469ce24e9b7560f8d9a03bb7c4bce54430e25bbf77777a5e9775263d", "c7506c7926e10208ed0845ca7c5d64bd641bde431b1b8007956090bcb086faad"},
	"tab4":         {"b2533492f69c362b670f95bbd2606bb230d112bd89e3d99f3c4a0d59af82e0c9", "0f32bb1ec6d7f308f3e92fcb61df48f404b3531b47b865df4c1570fdcabda5be"},
	"tab5":         {"cfeffb28b64833c52afcf9815c0ca06b274641d0669f6fdff0fa32b8f8a79756", "0bd8adab5036bc8c8e4141e4359edf075a91074c71850d3b613e8d98ab4f1d83"},
}

// TestExperimentRenderPins pins the rendered output of every registered
// experiment, byte for byte.
func TestExperimentRenderPins(t *testing.T) {
	cfg := Default()
	cfg.SRAMLimitBytes = 4096
	infos := List()
	if len(infos) != len(renderPins) {
		t.Errorf("%d experiments registered, %d pinned", len(infos), len(renderPins))
	}
	for _, info := range infos {
		res, err := Run(info.ID, cfg)
		if err != nil {
			t.Fatalf("%s: %v", info.ID, err)
		}
		render := sha256.Sum256([]byte(res.Render()))
		summary := sha256.Sum256([]byte(res.Summary()))
		got := struct{ render, summary string }{hex.EncodeToString(render[:]), hex.EncodeToString(summary[:])}
		if want := renderPins[info.ID]; got != want {
			t.Errorf("%s: render %s summary %s, want render %s summary %s",
				info.ID, got.render, got.summary, want.render, want.summary)
		}
	}
}
