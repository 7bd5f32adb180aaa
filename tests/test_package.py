import gaugetorsion
from gaugetorsion import chern, fp, matrices, polyring, steenrod, suspension, torsion

LAYERS = (fp, polyring, steenrod, chern, suspension, matrices, torsion)


def test_package_exports_each_layer_name_once():
    names = [name for layer in LAYERS for name in layer.__all__]
    assert len(names) == len(set(names))
    assert sorted(gaugetorsion.__all__) == sorted(names)
    for layer in LAYERS:
        for name in layer.__all__:
            assert getattr(gaugetorsion, name) is getattr(layer, name), name
